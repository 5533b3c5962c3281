package repro.dataflow

import java.util.concurrent.{ConcurrentHashMap, ConcurrentLinkedQueue}
import repro.txn.VersionAudit
import scala.jdk.CollectionConverters._

object ScheduleLog {

  /** One event in a worker's own order: a data operation or the point where
    * the worker applied a function update.
    */
  sealed trait Event

  /** A data operation: the input tuple, the configuration version that
    * processed it, and the outputs it produced.
    */
  final case class Process(t: DTuple, versionUsed: Int, outputs: Seq[(Map[String, Any], Int)])
      extends Event

  /** A function-update application, at its position in the worker's order. */
  final case class Apply(update: FunctionUpdate) extends Event
}

/** The execution's schedule log: one append-only queue per worker holding
  * that worker's events in the order it took them. Conflicts exist only
  * between operations on the same operator (Definition 4.6), and at the
  * physical level on the same worker (Section 7.2), so per-worker order is
  * all the consistency audit (`repro.txn.VersionAudit`) needs. It is also
  * the log that logging-based recovery replays (Section 7.3,
  * `repro.ft.Replay`).
  *
  * Logging is disabled in delay benchmarks: then no worker holds a queue and
  * the data path does no bookkeeping, as the Fries scheduler has none before
  * a reconfiguration arrives (Section 1.1).
  */
final class ScheduleLog(enabled: Boolean) {
  import ScheduleLog._

  private val queues = new ConcurrentHashMap[WorkerId, ConcurrentLinkedQueue[Event]]

  /** The queue worker `w` appends to, or null when logging is disabled.
    * Each worker fetches it once, at construction.
    */
  private[dataflow] def queueOf(w: WorkerId): ConcurrentLinkedQueue[Event] =
    if (enabled) queues.computeIfAbsent(w, _ => new ConcurrentLinkedQueue[Event]) else null

  /** Worker `w`'s events in its own order. */
  def eventsOf(w: WorkerId): Vector[Event] =
    Option(queues.get(w)).fold(Vector.empty[Event])(_.asScala.toVector)

  /** Data operations in audit form, worker by worker. */
  def dataRecords: Seq[VersionAudit.DataRecord] =
    queues.asScala.toVector.flatMap { case (w, q) =>
      val worker = w.toString
      q.asScala.collect { case Process(t, v, _) => VersionAudit.DataRecord(t.txnId, w.op, worker, v) }
    }
}
