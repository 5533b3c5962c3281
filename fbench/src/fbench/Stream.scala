package fbench

import java.util.concurrent.atomic.AtomicLong
import java.util.concurrent.locks.LockSupport
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.data.{Payments, Rows}
import repro.dataflow._
import repro.sched.FriesScheduler
import repro.txn.VersionAudit
import repro.workflows.Logics.FraudScore
import repro.workflows.W1

/** Workload inputs and parameters of the W1 stream pipeline
  * SRC → FD → SINK at p=1, driven open-loop.
  */
object Stream {
  val Sf = 0.5 // 120k payments per pass
  val Rate = 250_000.0 // tuples/s, far below the pipeline's capacity
  val Params: W1.Params = W1.Params(p = 1)
  val Workers: Set[String] = Set("SRC#0", "FD#0", "SINK#0")

  /** Seeded payments in p_id order (p_id = index) and the reference
    * score of each.
    */
  final case class Data(rows: Vector[Map[String, Any]], reference: Array[Double])

  def generate(spark: SparkSession, seed: Long): Data = {
    val payments = Payments.payments(spark, Sf, seed)
    val rows = Rows.toMaps(payments).sortBy(_("p_id").asInstanceOf[Long])
    // W1.sparkReference's window over the seeded stream.
    val w = Window.partitionBy("p_user").orderBy("p_id")
      .rowsBetween(-(Params.window - 1), Window.currentRow)
    val ref = new Array[Double](rows.size)
    payments.select(col("p_id"), avg("p_amount").over(w) as "score_u").collect()
      .foreach(r => ref(r.getLong(0).toInt) = r.getDouble(1))
    require(rows.indices.forall(i => rows(i)("p_id") == i.toLong), "p_id is not dense")
    Data(rows, ref)
  }

  /** Source rows paced to `period` ns apart from `t0`; tuple i is due at
    * t0 + i·period. Parks when ahead of schedule, so it emits in short
    * bursts after each park and never runs ahead.
    */
  final class Paced(rows: Vector[Map[String, Any]], t0: Long, period: Long)
      extends Iterator[Map[String, Any]] {
    val emitted = new AtomicLong
    val lateNanos = new LongBuf(rows.size)
    private var i = 0
    override def hasNext: Boolean = i < rows.size
    override def next(): Map[String, Any] = {
      val due = t0 + i * period
      var now = System.nanoTime()
      while (now < due) { LockSupport.parkNanos(due - now); now = System.nanoTime() }
      lateNanos.add(now - due)
      val r = rows(i)
      i += 1
      emitted.lazySet(i)
      r
    }
  }

  /** Sink recording due-to-sink latency per tuple and checking each score
    * against the reference, without keeping tuples.
    */
  final class LatencySink(t0: Long, period: Long, reference: Array[Double]) extends OpLogic {
    val latency = new Array[Long](reference.length)
    val seen = new AtomicLong
    @volatile var wrong = 0L
    private var n = 0
    override def process(t: DTuple): Seq[(Map[String, Any], Int)] = {
      val now = System.nanoTime()
      val id = t.values("p_id").asInstanceOf[Long].toInt
      latency(n) = now - (t0 + id * period)
      val score = t.values("score_u").asInstanceOf[Double]
      if (math.abs(score - reference(id)) > 1e-6 * math.max(1.0, math.abs(reference(id)))) wrong += 1
      n += 1
      seen.lazySet(n)
      Nil
    }
  }
}

/** One pass of the W1 stream on a fresh engine. Halfway through, a Fries
  * update swaps FD to W1.cheaperModel (state carried over).
  */
final class Pass(d: Stream.Data, paced: Boolean, audited: Boolean, tracer: Tracer, ops: Ops,
    parent: Long) {
  import Stream._

  private val n = d.rows.size
  private val period = if (paced) (1e9 / Rate).toLong else 0L
  private val t0 = System.nanoTime() + 5_000_000L
  val source = new Paced(d.rows, t0, period)
  val sink = new LatencySink(t0, period, d.reference)
  private val df = {
    val base = W1.dataflow(d.rows, Params)
    base.copy(
      sources = base.sources.map(_.copy(rows = () => source)),
      ops = base.ops.map(op => if (op.name == "SINK") op.copy(logic = _ => sink) else op))
  }
  val (engine, buildMs) = {
    val t = System.nanoTime()
    val e = new Engine(df, logEnabled = audited)
    (e, (System.nanoTime() - t) / 1e6)
  }

  var swapMs = Double.NaN
  var seconds = Double.NaN
  var gcMs = 0L
  /** Per worker (cpu ns, allocated bytes) per tuple, over the middle 80%. */
  var perTuple = Map.empty[String, (Double, Double)]

  private def sleepUntil(deadline: Long): Unit = {
    var now = System.nanoTime()
    while (now < deadline) { LockSupport.parkNanos(deadline - now); now = System.nanoTime() }
  }

  private def waitFor(count: Long): Unit = {
    if (paced) sleepUntil(t0 + count * period)
    while (source.emitted.get < count) Thread.sleep(1)
  }

  /** Run the pass to completion and check its outputs. */
  def run(): Unit = tracer.span(if (audited) "pass.audited" else "pass", parent) { id =>
    val gc0 = JvmCounters.gcMillis
    val ok = ops.attempt(if (audited) "W1 audited pass" else "W1 pass") {
      try {
        engine.start()
        var before = Map.empty[String, (Long, Long)]
        var beforeCount = 0L
        if (tracer.enabled) {
          waitFor(n / 10); beforeCount = source.emitted.get; before = JvmCounters.perThread(Workers)
        }
        waitFor(n / 2)
        val swap = tracer.span("sched.swap", id)(_ => new FriesScheduler().execute(engine,
          Reconfiguration.of("FD" -> W1.cheaperModel(Params, 0L, 1)), 10_000))
        require(swap.plans.flatMap(_.components).map(_.ops) == Vector(Set("FD")),
          s"FD swap planned ${swap.plans}")
        swapMs = swap.delayMillis
        if (tracer.enabled) {
          waitFor(n * 9 / 10)
          val count = source.emitted.get - beforeCount
          val after = JvmCounters.perThread(Workers)
          perTuple = after.collect { case (w, (c1, a1)) if before.contains(w) =>
            val (c0, a0) = before(w)
            w.takeWhile(_ != '#') -> ((c1 - c0).toDouble / count, (a1 - a0).toDouble / count)
          }
        }
        engine.awaitCompletion(60_000)
        seconds = (System.nanoTime() - t0) / 1e9
      } finally engine.shutdownNow()
    }.isDefined
    gcMs = JvmCounters.gcMillis - gc0
    if (ok) ops.check("W1 sink scores match the Spark reference", complete && sink.wrong == 0,
      s"${sink.seen.get} of $n rows seen, ${sink.wrong} scores differ")
  }

  def complete: Boolean = sink.seen.get == n
}

/** The consistency gate: ScheduleLog.dataRecords plus VersionAudit.check
  * over the reconfigured operators, timed after a full GC.
  */
object Audit {
  final case class Result(recordsS: Double, checkS: Double, records: Int, violations: Int) {
    def seconds: Double = recordsS + checkS
  }

  def run(engine: Engine, reconfigOps: Set[String]): Result = {
    System.gc()
    val t0 = System.nanoTime()
    val records = engine.log.dataRecords
    val t1 = System.nanoTime()
    val violations = VersionAudit.check(records, reconfigOps)
    val t2 = System.nanoTime()
    Result((t1 - t0) / 1e9, (t2 - t1) / 1e9, records.size, violations.size)
  }
}

object Logic {

  /** Single-threaded FD logic baseline: ns per FraudScore.process call over
    * the pass rows, median of three sweeps.
    */
  def nsPerTuple(d: Stream.Data): Double = Stats.median((1 to 3).map { _ =>
    val fd = new FraudScore("p_user", "p_amount", "score_u", Stream.Params.window)
    val t0 = System.nanoTime()
    var i = 0
    while (i < d.rows.size) { fd.process(DTuple(i.toLong, 0, d.rows(i))); i += 1 }
    (System.nanoTime() - t0).toDouble / d.rows.size
  })
}
