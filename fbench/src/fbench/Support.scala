package fbench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory
import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicLong
import scala.collection.mutable
import scala.jdk.CollectionConverters._

object Stats {

  /** Nearest-rank percentile of `xs` (need not be sorted), q in (0, 1]. */
  def percentile(xs: Seq[Double], q: Double): Double =
    if (xs.isEmpty) Double.NaN
    else {
      val s = xs.sorted
      s(math.max(0, math.ceil(q * s.size).toInt - 1))
    }

  def median(xs: Seq[Double]): Double = percentile(xs, 0.5)

  /** The highest of p99/p95/p90/p75/p50 that has at least ten samples
    * beyond it, as (label, value).
    */
  def tail(xs: Seq[Double]): (String, Double) = {
    val q = Seq(0.99, 0.95, 0.9, 0.75, 0.5)
      .find(q => xs.size - math.ceil(q * xs.size).toInt >= 10).getOrElse(0.5)
    (s"p${(q * 100).round}", percentile(xs, q))
  }

  /** Same nearest-rank rule over a sorted array of longs. */
  def percentileSorted(s: Array[Long], q: Double): Double =
    if (s.isEmpty) Double.NaN else s(math.max(0, math.ceil(q * s.length).toInt - 1)).toDouble
}

/** A growable array of longs, for per-tuple latency samples. */
final class LongBuf(initial: Int = 1 << 16) {
  private var a = new Array[Long](initial)
  private var n = 0
  def add(v: Long): Unit = {
    if (n == a.length) a = java.util.Arrays.copyOf(a, n * 2)
    a(n) = v; n += 1
  }
  def addAll(src: Array[Long], len: Int): Unit = {
    if (n + len > a.length) a = java.util.Arrays.copyOf(a, math.max(a.length * 2, n + len))
    System.arraycopy(src, 0, a, n, len); n += len
  }
  def size: Int = n
  def sorted: Array[Long] = { val s = java.util.Arrays.copyOf(a, n); java.util.Arrays.sort(s); s }
}

/** Operation accounting behind `attempted`, `failed` and `error_rate`:
  * requests, checkpoints, passes and audits. Any throw, timeout, output
  * mismatch or audit violation is a failure.
  */
final class Ops {
  private val attemptedN = new AtomicLong
  private val failures = new ConcurrentLinkedQueue[String]

  def attempted: Long = attemptedN.get
  def failed: Long = failures.size.toLong
  def failureMessages: Seq[String] = failures.asScala.toSeq

  /** Run one operation; returns its result, or None if it threw. */
  def attempt[T](what: String)(body: => T): Option[T] = {
    attemptedN.incrementAndGet()
    try Some(body)
    catch { case e: Throwable => fail(what, e.toString); None }
  }

  /** Count one operation whose outcome is the boolean `ok`. */
  def check(what: String, ok: Boolean, detail: => String = ""): Unit = {
    attemptedN.incrementAndGet()
    if (!ok) fail(what, detail)
  }

  private def fail(what: String, detail: String): Unit = {
    failures.add(s"$what: $detail")
    Console.err.println(s"[fbench] FAILED $what: $detail")
  }
}

/** Spans and gauges recorded by the benchmark around its calls into the
  * program. Disabled, `span` only runs its body and no sampler thread
  * exists, so the untraced run carries none of this.
  */
final class Tracer(val enabled: Boolean) {
  final case class Span(id: Long, name: String, parent: Long, req: Long, start: Long, end: Long)
  final case class Gauge(at: Long, name: String, value: Long)

  private val ids = new AtomicLong(1)
  private val spans = new ConcurrentLinkedQueue[Span]
  private val gauges = new ConcurrentLinkedQueue[Gauge]

  def newRequestId(): Long = ids.getAndIncrement()

  /** Time `body` as a span; the body receives the span id for its children. */
  def span[T](name: String, parent: Long = 0L, req: Long = 0L)(body: Long => T): T =
    if (!enabled) body(0L)
    else {
      val id = ids.getAndIncrement()
      val start = System.nanoTime()
      try body(id)
      finally spans.add(Span(id, name, parent, req, start, System.nanoTime()))
    }

  def durations(name: String): Seq[Double] =
    spans.asScala.filter(_.name == name).map(s => (s.end - s.start).toDouble).toSeq

  /** Sample `read()` (name -> value) every `periodMs` on a daemon thread
    * until the returned function is called.
    */
  def sampler(periodMs: Long)(read: () => Seq[(String, Long)]): () => Unit =
    if (!enabled) () => ()
    else {
      @volatile var running = true
      val t = new Thread(() =>
        while (running) {
          val now = System.nanoTime()
          read().foreach { case (n, v) => gauges.add(Gauge(now, n, v)) }
          Thread.sleep(periodMs)
        }, "fbench-sampler")
      t.setDaemon(true)
      t.start()
      () => { running = false; t.join() }
    }

  /** Per span name: count and total self time (duration minus the part of
    * it covered by child spans), in ms.
    */
  def selfTimes: Seq[(String, Int, Double)] = {
    val all = spans.asScala.toVector
    val children = all.groupBy(_.parent)
    def covered(s: Span): Long = {
      val iv = children.getOrElse(s.id, Vector.empty).map(c => (c.start, c.end)).sortBy(_._1)
      var total = 0L; var curS = Long.MinValue; var curE = Long.MinValue
      iv.foreach { case (a, b) =>
        if (a > curE) { if (curE > curS) total += curE - curS; curS = a; curE = b }
        else curE = math.max(curE, b)
      }
      if (curE > curS) total += curE - curS
      total
    }
    all.groupBy(_.name).toSeq.map { case (n, ss) =>
      (n, ss.size, ss.map(s => (s.end - s.start) - covered(s)).sum / 1e6)
    }.sortBy(-_._3)
  }

  def write(file: File): Unit = {
    file.getParentFile.mkdirs()
    val w = new PrintWriter(file, "UTF-8")
    try {
      spans.asScala.toSeq.sortBy(_.start).foreach { s =>
        w.println(s"""{"span":"${s.name}","id":${s.id},"parent":${s.parent},"req":${s.req},""" +
          s""""start_ns":${s.start},"end_ns":${s.end}}""")
      }
      gauges.asScala.foreach { g =>
        w.println(s"""{"gauge":"${g.name}","at_ns":${g.at},"value":${g.value}}""")
      }
    } finally w.close()
  }
}

/** Per-thread CPU time and allocated bytes (ThreadMXBean), and GC time
  * (GarbageCollectorMXBeans), read from outside the engine.
  */
object JvmCounters {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  threads.setThreadCpuTimeEnabled(true)
  threads.setThreadAllocatedMemoryEnabled(true)

  /** (cpu ns, allocated bytes) of the newest live thread with each name. */
  def perThread(names: Set[String]): Map[String, (Long, Long)] =
    Thread.getAllStackTraces.keySet.asScala.toSeq
      .filter(t => names(t.getName) && t.isAlive)
      .groupBy(_.getName)
      .map { case (n, ts) =>
        val id = ts.map(_.getId).max
        n -> (threads.getThreadCpuTime(id), threads.getThreadAllocatedBytes(id))
      }

  def gcMillis: Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum
}

/** Collected metrics: value, unit and sample count, printed as a table and
  * as the final JSON line.
  */
final class Report {
  final case class M(value: Double, unit: String, n: Long, note: String)
  val endToEnd = mutable.LinkedHashMap.empty[String, M]
  val perLayer = mutable.LinkedHashMap.empty[String, M]

  def e2e(name: String, value: Double, unit: String, n: Long, note: String = ""): Unit =
    endToEnd(name) = M(value, unit, n, note)
  def layer(name: String, value: Double, unit: String, n: Long = 1, note: String = ""): Unit =
    perLayer(name) = M(value, unit, n, note)

  def table(title: String, ms: mutable.LinkedHashMap[String, M]): String = {
    val sb = new StringBuilder(s"$title\n")
    ms.foreach { case (k, m) =>
      sb ++= f"  $k%-42s ${fmt(m.value)}%16s ${m.unit}%-9s n=${m.n}%-8d ${m.note}\n"
    }
    sb.result()
  }

  def json(metrics: mutable.LinkedHashMap[String, M], correct: Boolean, attempted: Long,
      failed: Long): String = {
    val body = metrics.map { case (k, m) =>
      s""""$k": {"value": ${fmt(m.value)}, "unit": "${m.unit}"}"""
    }.mkString(", ")
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {$body}}"""
  }

  private def fmt(v: Double): String =
    if (v.isNaN || v.isInfinite) "0"
    else if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString
    else v.toString
}
