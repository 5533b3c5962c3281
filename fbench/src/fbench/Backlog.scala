package fbench

import java.util.concurrent.{Callable, Executors}
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.data.{Rows, TpcDsLite}
import repro.dataflow._
import repro.experiments.Table4
import repro.ft.CheckpointCoordinator
import repro.sched.{EpochScheduler, FriesScheduler, ReconfigOutcome}
import repro.workflows.W2

/** Workload inputs and parameters of the W2 backlog pipeline
  * SRC → J1..J4 → SINK, with Table 4's parameters.
  */
object Backlog {
  val P = 3
  val Sf = 0.02
  val Costs: Map[String, Long] =
    Map("J1" -> 400_000L, "J2" -> 600_000L, "J3" -> 800_000L, "J4" -> 1_000_000L)
  // Filters widened to pass-through so every channel carries the same load.
  val Params: W2.Params = W2.Params(p = P, joinCostNanos = Costs("J1"), priceLo = 0.0,
    priceHi = 10.0, dateLoSk = 1, dateWindowDays = 3000, loop = true, srcCap = 2048, midCap = 64)
  val PauseMs = 10L
  val TimeoutMs = 30_000L

  /** Request classes with the MCS and longest path they must plan to
    * (Table 4's column where the table has the row).
    */
  final case class Request(name: String, ops: Seq[String], mcs: Seq[Set[String]], longestPath: Int)

  private def tableRow(ops: String*): Request = {
    val row = Table4.paperRows.find(r => r.workflow == "W2" && r.ops == ops).get
    val comps = row.paperMcs.split(" ").toSeq.map(_.stripPrefix("{").stripSuffix("}").split(",").toSet)
    Request(ops.mkString("_"), ops, comps, row.paperLongestPath)
  }
  val Single: Request = tableRow("J1")
  val Deep: Request = tableRow("J1", "J4")
  val PairB: Request = tableRow("J3", "J4")
  val PairA: Request = Request("J1_J2", Seq("J1", "J2"), Seq(Set("J1", "J2")), 1)

  /** Seeded inputs and the expected sink rows, keyed by (order, item). */
  final case class Data(inputs: W2.Inputs, expected: Map[(Any, Any), Set[String]], rows: Long)

  def generate(spark: SparkSession, seed: Long): Data = {
    val cs = TpcDsLite.catalogSales(spark, Sf, seed)
    val it = TpcDsLite.item(spark, Sf, seed + 101)
    val wh = TpcDsLite.warehouse(spark, seed + 202)
    val dd = TpcDsLite.dateDim(spark)
    val cr = TpcDsLite.catalogReturns(spark, Sf, seed)
    def keyed(df: org.apache.spark.sql.DataFrame, k: String) =
      Rows.toMaps(df).map(r => r(k) -> r).toMap
    val probe = Rows.toMaps(cs)
    val inputs = W2.Inputs(probe, keyed(it, "i_item_sk"), keyed(wh, "w_warehouse_sk"),
      keyed(dd, "d_date_sk"),
      Rows.toMaps(cr).map(r => (r("cr_order_number"), r("cr_item_sk")) -> r).toMap)
    // Spark reference of the same join (W2.sparkReference over the seeded tables).
    val prm = Params
    val ref = cs.join(it.where(col("i_current_price").between(prm.priceLo, prm.priceHi)),
        col("cs_item_sk") === col("i_item_sk"))
      .join(wh, col("cs_warehouse_sk") === col("w_warehouse_sk"))
      .join(dd.where(col("d_date_sk").between(prm.dateLoSk, prm.dateLoSk + prm.dateWindowDays)),
        col("cs_sold_date_sk") === col("d_date_sk"))
      .join(cr, col("cs_order_number") === col("cr_order_number") &&
        col("cs_item_sk") === col("cr_item_sk"), "left")
      .select(col("cs_order_number"), col("cs_item_sk"), col("i_item_id"), col("w_state"),
        col("d_date").cast("string") as "d_date", col("cs_sales_price"),
        coalesce(col("cr_refunded_cash"), lit(0.0)) as "cr_refunded_cash")
    val expected = Rows.toMaps(ref).groupBy(key).map { case (k, rs) => k -> rs.map(canon).toSet }
    Data(inputs, expected, probe.size.toLong)
  }

  private def key(m: Map[String, Any]): (Any, Any) = (m("cs_order_number"), m("cs_item_sk"))
  private def canon(m: Map[String, Any]): String = Rows.canonical(Seq(m), W2.outputCols).head.mkString("|")

  /** Sink that checks every output row against the reference. */
  final class CheckSink(expected: Map[(Any, Any), Set[String]], seen: AtomicLong,
      wrong: AtomicLong) extends OpLogic {
    override def process(t: DTuple): Seq[(Map[String, Any], Int)] = {
      if (!expected.get(key(t.values)).exists(_(canon(t.values)))) wrong.incrementAndGet()
      seen.incrementAndGet()
      Nil
    }
  }

  /** W2.dataflow with the per-join cost ramp and a checking sink. */
  def dataflow(d: Data, seen: AtomicLong, wrong: AtomicLong): Dataflow = {
    val base = W2.dataflow(d.inputs, Params)
    base.copy(ops = base.ops.map { op =>
      if (op.name == "SINK") op.copy(logic = _ => new CheckSink(d.expected, seen, wrong))
      else Costs.get(op.name).fold(op) { c =>
        val inner = op.logic
        op.copy(logic = i => new OpLogic {
          private val l = inner(i)
          override val costNanos: Long = c
          override def process(t: DTuple) = l.process(t)
          override def onFinish() = l.onFinish()
          override def state: Any = l.state
        })
      }
    })
  }

  def backlog(e: Engine, ops: Set[String] = Set.empty): Long =
    e.channels.iterator.filter(c => ops.isEmpty || (ops(c.from.op) && ops(c.to.op)))
      .map(_.backlog.toLong).sum
}

/** One running W2 engine, warmed until its channel backlog is steady, and
  * the closed request loop over it.
  */
final class Backlog(d: Backlog.Data, tracer: Tracer, ops: Ops, parent: Long) {
  import Backlog._

  private val seen = new AtomicLong
  private val wrong = new AtomicLong
  val df: Dataflow = dataflow(d, seen, wrong)
  val (engine, buildMs) = {
    val t = System.nanoTime()
    val e = tracer.span("dataflow.build", parent)(_ => new Engine(df, logEnabled = false))
    (e, (System.nanoTime() - t) / 1e6)
  }
  private val coordinator = new CheckpointCoordinator(engine)
  private val fries = new FriesScheduler(checkpoint = Some(coordinator))
  private val epoch = new EpochScheduler()
  private val allOps = Set("J1", "J2", "J3", "J4")

  /** Start the engine and return once the total channel backlog has not
    * grown for 300 ms (it fills from empty as each stage outpaces the next).
    */
  def warmUp(): Double = tracer.span("dataflow.warmup", parent) { _ =>
    val t0 = System.nanoTime()
    engine.start()
    var max = 0L
    var lastGrowth = System.nanoTime()
    while (System.nanoTime() - lastGrowth < 300_000_000L || max == 0L) {
      require(System.nanoTime() - t0 < 20_000_000_000L, "W2 backlog did not settle in 20 s")
      Thread.sleep(10)
      val b = backlog(engine)
      if (b > max + math.max(8L, max / 200)) { max = b; lastGrowth = System.nanoTime() }
    }
    (System.nanoTime() - t0) / 1e9
  }

  // Samples, in ms unless named otherwise.
  val single, singleHead, deep, deepTransit, pair, epochDeep, checkpoint = Vector.newBuilder[Double]
  val triggerUs, backlogAll, backlogMcs = Vector.newBuilder[Double]
  var reports = 0L
  var throughput = 0.0
  var deepPlan: Option[repro.core.ReconfigPlan[String]] = None

  private def planGate(r: Request, o: ReconfigOutcome): Unit = {
    val comps = o.plans.flatMap(_.components).map(_.ops).toSet
    val lp = o.plans.map(_.longestPathLength).max
    ops.check(s"W2 Fries ${r.name} plan", comps == r.mcs.toSet && lp == r.longestPath,
      s"MCS $comps / longest path $lp, expected ${r.mcs} / ${r.longestPath}")
  }

  /** One Fries request: plan (traced only), then execute. */
  private def friesRequest(r: Request, req: Long, parent: Long): Option[ReconfigOutcome] = {
    if (tracer.enabled) tracer.span("core.plan", parent, req)(_ => fries.plan(df, r.ops.toSet))
    val out = ops.attempt(s"W2 Fries ${r.name}") {
      tracer.span("sched.execute", parent, req)(_ =>
        fries.execute(engine, Reconfiguration.dummy(r.ops: _*), TimeoutMs))
    }
    out.foreach(planGate(r, _))
    out
  }

  private def request[T](name: String, loop: Long)(body: (Long, Long) => T): T = {
    val req = tracer.newRequestId()
    val out = tracer.span(name, loop, req)(id => body(req, id))
    Thread.sleep(PauseMs)
    out
  }

  private def maxApply(o: ReconfigOutcome): Long = o.applyTimes.values.max

  /** `rounds` rounds of: `singles` × Fries {J1}, `repeats` × Fries {J1,J4},
    * `repeats` × Fries {J1,J2} ∥ {J3,J4}, then Epoch {J1,J4} and one aligned
    * checkpoint.
    */
  def run(rounds: Int, singles: Int, repeats: Int): Unit = tracer.span("w2.loop") { loop =>
    ops.check("W2 channels = p+4p²", engine.channels.size == P + 4 * P * P)
    ops.check("W2 MCS channels = 3p²", engine.channelsBetween(allOps) == 3 * P * P)
    val pool = Executors.newFixedThreadPool(2, (r: Runnable) => {
      val t = new Thread(r, "fbench-pair"); t.setDaemon(true); t
    })
    val emitted0 = engine.sourceRuntimes.values.map(_.emitted).sum
    val t0 = System.nanoTime()
    try (1 to rounds).foreach { _ =>
      (1 to singles).foreach { _ =>
        request("request.fries_single", loop) { (req, id) =>
          friesRequest(Single, req, id).foreach { o =>
            single += o.delayMillis
            singleHead += (o.applyTimes.values.min - o.requestedAtNanos) / 1e6
          }
        }
      }
      (1 to repeats).foreach { _ => request("request.fries_deep", loop) { (req, id) =>
        if (tracer.enabled) backlogMcs += backlog(engine, allOps).toDouble
        friesRequest(Deep, req, id).foreach { o =>
          deep += o.delayMillis
          val headApplied = o.applyTimes.collect { case (w, t) if w.op == "J1" => t }.max
          deepTransit += (maxApply(o) - headApplied) / 1e6
          deepPlan = o.plans.headOption
        }
      }}
      (1 to repeats).foreach { _ => request("request.fries_pair", loop) { (req, id) =>
        val start = System.nanoTime()
        val futures = Seq(PairA, PairB).map(r =>
          pool.submit(new Callable[Option[ReconfigOutcome]] {
            def call() = friesRequest(r, req, id)
          }))
        val outs = futures.map(_.get())
        if (outs.forall(_.isDefined)) pair += (outs.flatten.map(maxApply).max - start) / 1e6
      }}
      request("request.epoch_deep", loop) { (req, id) =>
        if (tracer.enabled) backlogAll += backlog(engine).toDouble
        ops.attempt("W2 Epoch J1_J4") {
          tracer.span("sched.execute", id, req)(_ =>
            epoch.execute(engine, Reconfiguration.dummy(Deep.ops: _*), TimeoutMs))
        }.foreach { o =>
          ops.check("W2 Epoch J1_J4 applied", o.applyTimes.size == Deep.ops.size * P)
          epochDeep += o.delayMillis
        }
      }
      request("request.checkpoint", loop) { (req, id) =>
        if (tracer.enabled) backlogAll += backlog(engine).toDouble
        val start = System.nanoTime()
        ops.attempt("W2 checkpoint") {
          val cid = tracer.span("ft.trigger", id, req)(_ => coordinator.trigger()).get
          val triggered = System.nanoTime()
          require(tracer.span("ft.await", id, req)(_ => coordinator.awaitCompleted(cid, TimeoutMs)),
            s"checkpoint $cid not committed")
          val done = System.nanoTime()
          // Each operator was reconfigured a different number of times, so
          // the snapshot must be all-old or all-new per operator.
          require(allOps.forall(op => coordinator.isConsistent(cid, Set(op))),
            s"checkpoint $cid mixes configuration versions")
          triggerUs += (triggered - start) / 1e3
          checkpoint += (done - start) / 1e6
          reports = coordinator.completed(cid).size.toLong
        }
      }
    } finally pool.shutdownNow()
    val secs = (System.nanoTime() - t0) / 1e9
    throughput = (engine.sourceRuntimes.values.map(_.emitted).sum - emitted0) / secs
    ops.check("W2 sink rows match the Spark reference", wrong.get == 0 && seen.get > 0,
      s"${wrong.get} of ${seen.get} rows differ")
  }

  def close(): Unit = engine.shutdownNow()
}
