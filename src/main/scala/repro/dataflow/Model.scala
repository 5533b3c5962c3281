package repro.dataflow

import repro.core.{Dag, OpMeta}

/** A data tuple flowing through the engine.
  *
  * @param txnId  id of the source tuple whose data transaction this tuple
  *               belongs to (Definition 4.4) — inherited by every derived
  *               tuple, which is what lets the audit reconstruct transactions
  * @param ver    version tag (used by the FCM multi-version scheduler,
  *               Section 4.1; 0 otherwise)
  * @param values column name → value
  */
final case class DTuple(txnId: Long, ver: Int, values: Map[String, Any]) {
  def apply(col: String): Any = values(col)
  def long(col: String): Long = values(col) match {
    case l: Long => l; case i: Int => i.toLong; case s: String => s.toLong
    case x => x.toString.toLong
  }
  def double(col: String): Double = values(col) match {
    case d: Double => d; case l: Long => l.toDouble; case i: Int => i.toDouble
    case x => x.toString.toDouble
  }
  def str(col: String): String = String.valueOf(values(col))
}

/** The computation function f : (s, t) → (s', {(t', o')}) of an operator
  * (Section 2.1), together with its mutable state. One instance per worker;
  * accessed only from that worker's thread.
  */
trait OpLogic {

  /** Process one input tuple; returns (output values, output port) pairs.
    * The port indexes the operator's out-edges in dataflow declaration
    * order. The worker stamps txnId/ver onto the outputs.
    */
  def process(t: DTuple): Seq[(Map[String, Any], Int)]

  /** Called once after all inputs reach end-of-stream; blocking operators
    * (aggregations, sorts) emit their results here.
    */
  def onFinish(): Seq[(Map[String, Any], Int)] = Nil

  /** The operator state s, snapshot for checkpoints and consumed by the
    * state transformation of a reconfiguration. Must be cheap to read.
    */
  def state: Any = null

  /** Simulated per-tuple processing cost (busy time), nanoseconds. */
  def costNanos: Long = 0L
}

/** A function update μ(o) = ⟨f', T⟩ (Definition 2.1): builds the new logic
  * from the transformed old state.
  */
trait FunctionUpdate {

  /** State transformation T: old state → state consumable by the new f'. */
  def transformState(old: Any): Any = old

  /** The new computation function f', initialized with the transformed state. */
  def newLogic(transformedState: Any): OpLogic

  def apply(old: OpLogic): OpLogic = newLogic(transformState(old.state))
}

object FunctionUpdate {

  /** A dummy reconfiguration: keeps the current logic instance (and thus its
    * state) unchanged. Used by the delay experiments of Sections 8.5–8.10,
    * which request "dummy" reconfigurations.
    */
  val identity: FunctionUpdate = new FunctionUpdate {
    override def apply(old: OpLogic): OpLogic = old
    override def newLogic(s: Any): OpLogic =
      throw new IllegalStateException("identity update builds no new logic")
    override def toString = "FunctionUpdate.identity"
  }

  /** Replace the logic wholesale, feeding it the (optionally transformed)
    * old state.
    */
  def replace(make: Any => OpLogic, transform: Any => Any = x => x): FunctionUpdate =
    new FunctionUpdate {
      override def transformState(old: Any): Any = transform(old)
      override def newLogic(s: Any): OpLogic = make(s)
    }
}

/** A reconfiguration request R = {(o_i, μ(o_i))} (Definition 2.1), keyed by
  * logical operator name.
  */
final case class Reconfiguration(updates: Map[String, FunctionUpdate]) {
  def ops: Set[String] = updates.keySet
}

object Reconfiguration {
  def of(pairs: (String, FunctionUpdate)*): Reconfiguration = Reconfiguration(pairs.toMap)

  /** A dummy reconfiguration of the given operators. */
  def dummy(ops: String*): Reconfiguration =
    Reconfiguration(ops.map(_ -> FunctionUpdate.identity).toMap)
}

/** How tuples on an edge are routed to the downstream operator's workers. */
sealed trait Partition
object Partition {

  /** Worker i sends only to worker i (operator chaining); requires equal
    * parallelism on both sides.
    */
  case object Forward extends Partition

  /** Hash of column `key` modulo downstream parallelism. */
  final case class Hash(key: String) extends Partition

  /** Every output tuple goes to every downstream worker. The planner treats
    * the upstream worker as followed by a Replicate (Section 7.2), i.e. a
    * one-to-many, edge-wise one-to-one operator.
    */
  case object Broadcast extends Partition

  /** Rotate through downstream workers. */
  case object RoundRobin extends Partition
}

/** A logical operator (Section 2.1) and its planner-relevant properties.
  *
  * @param name        unique operator name
  * @param parallelism number of workers (Section 7.2)
  * @param logic       fresh logic for worker index i — per-worker instances
  *                    let tests model stragglers via per-index costs
  * @param meta        one-to-one / one-to-many classification for the planner
  * @param blocking    pipeline breaker (Section 7.1): consumes all input
  *                    before emitting, splitting the dataflow into regions
  */
final case class Operator(
    name: String,
    parallelism: Int,
    logic: Int => OpLogic,
    meta: OpMeta = OpMeta.oneToOne,
    blocking: Boolean = false) {
  require(parallelism >= 1, s"operator $name needs >= 1 worker")
}

/** A source operator: generates the input stream.
  *
  * @param rows       fresh iterator over tuple values; replayed from the
  *                   start when `loop` is set (infinite benchmark streams)
  * @param ratePerSec ingestion rate; 0 = unthrottled (backpressure-bound)
  */
final case class SourceSpec(
    name: String,
    rows: () => Iterator[Map[String, Any]],
    ratePerSec: Double = 0.0,
    parallelism: Int = 1,
    loop: Boolean = false)

/** A logical dataflow edge with its partitioning and channel capacity. */
final case class EdgeSpec(
    from: String,
    to: String,
    partition: Partition = Partition.RoundRobin,
    capacity: Int = 0) // 0 = engine default

/** A logical dataflow DAG (Section 2.1): sources, operators, edges. */
final case class Dataflow(
    sources: Vector[SourceSpec],
    ops: Vector[Operator],
    edges: Vector[EdgeSpec]) {

  val opByName: Map[String, Operator] = ops.map(o => o.name -> o).toMap
  val sourceByName: Map[String, SourceSpec] = sources.map(s => s.name -> s).toMap
  require(
    (ops.map(_.name) ++ sources.map(_.name)).distinct.sizeIs == ops.size + sources.size,
    "duplicate operator/source names")

  /** The logical DAG over source + operator names. */
  val dag: Dag[String] =
    Dag((sources.map(_.name) ++ ops.map(_.name)).toVector, edges.map(e => (e.from, e.to)))

  /** Out-edges of an operator/source, in declaration order — this order
    * defines the output-port indexes used by `OpLogic.process`.
    */
  def outEdges(name: String): Vector[EdgeSpec] = edges.filter(_.from == name)

  /** In-edges of an operator, in declaration order. */
  def inEdges(name: String): Vector[EdgeSpec] = edges.filter(_.to == name)

  def parallelismOf(name: String): Int =
    opByName.get(name).map(_.parallelism).orElse(sourceByName.get(name).map(_.parallelism)).get

  /** Planner metadata for each vertex. Sources are one-to-one. An operator
    * with a Broadcast out-edge is treated as if a Replicate operator
    * followed it (Section 7.2): one-to-many, and edge-wise one-to-one only
    * when each broadcast edge fans out to a single downstream worker
    * (otherwise a reconfiguration downstream affects several of the
    * broadcast copies, so the edge-wise pruning rule must not fire — the
    * logical-level planner is conservative here).
    */
  def plannerMeta(name: String): OpMeta = {
    val base = opByName.get(name).map(_.meta).getOrElse(OpMeta.oneToOne)
    val broadcastEdges = outEdges(name).filter(_.partition == Partition.Broadcast)
    if (broadcastEdges.isEmpty) base
    else base.copy(
      oneToMany = true,
      edgeWiseOneToOne = (base.edgeWiseOneToOne || !base.oneToMany) &&
        broadcastEdges.forall(e => parallelismOf(e.to) == 1))
  }

  /** Names of blocking operators. */
  def blockingOps: Set[String] = ops.filter(_.blocking).map(_.name).toSet
}
