package repro.dataflow

import java.util.concurrent.{ArrayBlockingQueue, ConcurrentLinkedQueue}
import java.util.concurrent.atomic.AtomicLong
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** A point-to-point FIFO data channel between two workers. Bounded: a full
  * queue blocks the producer, which is how backpressure (and the in-flight
  * backlog that delays epoch-based reconfiguration, Section 3.2) arises.
  * Every enqueue goes through [[put]], which wakes the consumer if it is
  * idle.
  */
final class Channel(val from: WorkerId, val to: WorkerId, capacity: Int) {
  private val q = new ArrayBlockingQueue[Msg](capacity)
  // Bound by the consuming worker's constructor, before any thread starts.
  private[dataflow] var consumer: WorkerRuntime = _

  private[dataflow] def put(m: Msg): Unit = { q.put(m); consumer.wake() }
  private[dataflow] def poll(): Msg = q.poll()
  private[dataflow] def isEmpty: Boolean = q.isEmpty
  def backlog: Int = q.size
}

/** One logical out-edge of a worker, bound to its physical channels. */
final class OutPort(val edge: EdgeSpec, val channels: Vector[Channel]) {
  private var rr = 0

  /** Route one data tuple according to the edge's partitioning. */
  def send(t: DTuple): Unit = edge.partition match {
    case Partition.Forward => channels(0).put(Msg.Data(t))
    case Partition.Hash(k) =>
      channels(math.floorMod(t.values(k).hashCode, channels.size)).put(Msg.Data(t))
    case Partition.Broadcast => channels.foreach(_.put(Msg.Data(t)))
    case Partition.RoundRobin =>
      channels(rr % channels.size).put(Msg.Data(t)); rr += 1
  }

  /** Deliver a marker or EOS to every channel of the edge (markers must
    * reach all downstream workers for alignment).
    */
  def sendAll(m: Msg): Unit = channels.foreach(_.put(m))

  /** Forward a marker along this edge only if its target participates
    * (for Fries: the MCS component; for the epoch scheduler: everyone).
    */
  def forward(ctx: MarkerCtx): Unit =
    if (ctx.participantOps(edge.to)) sendAll(Msg.Marker(ctx))
}

/** A built-in sink logic that stashes every input tuple for inspection. */
final class CollectLogic extends OpLogic {
  val buf = new ConcurrentLinkedQueue[DTuple]
  override def process(t: DTuple): Seq[(Map[String, Any], Int)] = { buf.add(t); Nil }
  def collected: Vector[DTuple] = buf.asScala.toVector
}

/** The single-process parallel dataflow engine.
  *
  * Every worker (and every source worker) runs on its own thread, connected
  * by bounded FIFO channels; each worker also owns an out-of-band control
  * queue drained between data messages — the engine's fast control messages
  * (Definition 4.1). An idle worker sleeps until a producer or a control
  * sender wakes it. Schedulers in `repro.sched` drive reconfigurations
  * through [[sendControl]].
  *
  * @param defaultCapacity channel capacity when an `EdgeSpec` doesn't set one
  * @param logEnabled      record the per-worker schedule log, read by the
  *                        consistency audit and by replay (Section 7.3)
  */
final class Engine(
    val df: Dataflow,
    defaultCapacity: Int = 256,
    logEnabled: Boolean = true) {

  require(df.sources.nonEmpty, "dataflow needs at least one source")
  df.sources.foreach { s =>
    require(df.outEdges(s.name).sizeIs == 1, s"source ${s.name} must have exactly one out-edge")
  }

  val log = new ScheduleLog(logEnabled)
  private val reconfigIdGen = new AtomicLong(0)

  // ---------------------------------------------------------------- build
  val channels: Vector[Channel] = df.edges.flatMap { e =>
    val pFrom = df.parallelismOf(e.from)
    val pTo = df.parallelismOf(e.to)
    val cap = if (e.capacity > 0) e.capacity else defaultCapacity
    e.partition match {
      case Partition.Forward =>
        require(pFrom == pTo, s"forward edge ${e.from}->${e.to} needs equal parallelism")
        (0 until pFrom).map(i => new Channel(WorkerId(e.from, i), WorkerId(e.to, i), cap))
      case _ =>
        for (i <- 0 until pFrom; j <- 0 until pTo)
          yield new Channel(WorkerId(e.from, i), WorkerId(e.to, j), cap)
    }
  }

  private val inChannels: Map[WorkerId, Vector[Channel]] =
    channels.groupBy(_.to).withDefaultValue(Vector.empty)

  private def outPortsFor(worker: WorkerId): Vector[OutPort] =
    df.outEdges(worker.op).map { e =>
      val mine = channels.filter(c => c.from == worker && c.to.op == e.to)
      new OutPort(e, mine)
    }

  val workers: Map[WorkerId, WorkerRuntime] = (for {
    op <- df.ops
    i <- 0 until op.parallelism
    id = WorkerId(op.name, i)
  } yield id -> new WorkerRuntime(id, op, inChannels(id), outPortsFor(id), this)).toMap

  val sourceRuntimes: Map[WorkerId, SourceRuntime] = (for {
    s <- df.sources
    i <- 0 until s.parallelism
    id = WorkerId(s.name, i)
  } yield id -> new SourceRuntime(id, s, outPortsFor(id))).toMap

  private val threads = mutable.Buffer.empty[Thread]

  // ------------------------------------------------------------- lifecycle
  def start(): Unit = synchronized {
    require(threads.isEmpty, "engine already started")
    (workers.values.map(w => new Thread(w, w.id.toString)) ++
      sourceRuntimes.values.map(s => new Thread(s, s.id.toString))).foreach { t =>
      t.setDaemon(true)
      threads += t
      t.start()
    }
  }

  /** Wait until every worker finished (all sources exhausted, EOS drained).
    * Throws if the timeout elapses — a hung test fails instead of wedging.
    */
  def awaitCompletion(timeoutMs: Long = 120_000): Unit = {
    val deadline = System.nanoTime() + timeoutMs * 1_000_000L
    threads.foreach { t =>
      val left = math.max(1L, (deadline - System.nanoTime()) / 1_000_000L)
      t.join(left)
      require(!t.isAlive, s"worker ${t.getName} did not finish within ${timeoutMs}ms")
    }
  }

  /** Interrupt every thread; used by benchmarks that measure a delay on an
    * infinite stream and then tear the execution down.
    */
  def shutdownNow(): Unit = {
    threads.foreach(_.interrupt())
    threads.foreach(_.join(2_000))
  }

  /** Ask every source to finish its stream (EOS propagates, workers drain). */
  def stopSources(): Unit =
    sourceRuntimes.keys.foreach(sendControl(_, ControlMsg.StopSource))

  // -------------------------------------------------------------- control
  /** A fresh id for a reconfiguration or checkpoint marker. */
  def newReconfigId(): Long = reconfigIdGen.getAndIncrement()

  def sendControl(w: WorkerId, c: ControlMsg): Unit =
    workers.get(w) match {
      case Some(rt) => rt.control.add(c); rt.wake()
      case None => sourceRuntimes(w).control.add(c)
    }

  /** Start marker `ctx` at each of `heads` (workers or sources). */
  def startMarker(heads: Iterable[WorkerId], ctx: MarkerCtx): Unit =
    heads.foreach(sendControl(_, ControlMsg.StartMarker(ctx)))

  // ------------------------------------------------------------ inspection
  def workersOf(op: String): Vector[WorkerId] =
    (0 until df.parallelismOf(op)).map(WorkerId(op, _)).toVector

  /** Tuples accumulated by `CollectLogic` sinks of operator `op`. */
  def collected(op: String): Vector[DTuple] =
    workersOf(op).flatMap { w =>
      workers(w).currentLogicForInspection match {
        case c: CollectLogic => c.collected
        case other => throw new IllegalStateException(s"$w logic is ${other.getClass}, not CollectLogic")
      }
    }

  def logicOf(w: WorkerId): OpLogic = workers(w).currentLogicForInspection

  /** All physical channels as (from, to) worker pairs — Table 7's
    * "data channels between workers".
    */
  def channelPairs: Vector[(WorkerId, WorkerId)] = channels.map(c => (c.from, c.to))

  /** Number of channels whose endpoints both belong to `ops`. */
  def channelsBetween(ops: Set[String]): Int =
    channels.count(c => ops(c.from.op) && ops(c.to.op))
}
