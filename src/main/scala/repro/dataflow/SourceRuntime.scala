package repro.dataflow

import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicLong
import java.util.concurrent.locks.LockSupport

object SourceRuntime {
  // Global worker counter so txn ids are unique across all source workers
  // of all engines in a JVM (24-bit worker prefix | 40-bit sequence).
  private val workerSeq = new AtomicLong(0)
}

/** One worker of a source operator: emits the input stream at the requested
  * rate (or as fast as backpressure allows), stamps each source tuple with
  * a globally unique transaction id, and reacts to scheduler control
  * messages (marker starts, version bumps, stop requests).
  */
final class SourceRuntime(
    val id: WorkerId,
    spec: SourceSpec,
    outPorts: Vector[OutPort])
    extends Runnable {

  val control = new ConcurrentLinkedQueue[ControlMsg]

  private val txnBase = SourceRuntime.workerSeq.getAndIncrement() << 40
  @volatile private var stopRequested = false
  @volatile private var ver = 0
  @volatile private var emittedCount = 0L

  def emitted: Long = emittedCount

  override def run(): Unit =
    try {
      var it = spec.rows()
      val nanosPer = if (spec.ratePerSec <= 0) 0L else (1e9 / spec.ratePerSec).toLong
      val start = System.nanoTime()
      var done = false
      while (!done) {
        if (Thread.currentThread().isInterrupted) throw new InterruptedException
        drainControl()
        if (stopRequested) done = true
        else if (!it.hasNext) {
          if (spec.loop) {
            it = spec.rows()
            if (!it.hasNext) done = true // empty generator: avoid a busy loop
          } else done = true
        } else if (nanosPer > 0) {
          val target = start + emittedCount * nanosPer
          val now = System.nanoTime()
          if (now < target) LockSupport.parkNanos(math.min(target - now, 1_000_000L))
          else emit(it.next())
        } else emit(it.next())
      }
      outPorts.foreach(_.sendAll(Msg.Eos))
    } catch {
      case _: InterruptedException => () // shutdownNow
    }

  private def emit(values: Map[String, Any]): Unit = {
    val t = DTuple(txnBase | emittedCount, ver, values)
    outPorts.foreach(_.send(t))
    emittedCount += 1
  }

  private def drainControl(): Unit = {
    var c = control.poll()
    while (c != null) {
      c match {
        case ControlMsg.StartMarker(ctx) => outPorts.foreach(_.forward(ctx))
        case ControlMsg.BumpVersion(v) => ver = v
        case ControlMsg.StopSource => stopRequested = true
        case other =>
          throw new IllegalArgumentException(s"worker-only control message $other sent to source $id")
      }
      c = control.poll()
    }
  }
}
