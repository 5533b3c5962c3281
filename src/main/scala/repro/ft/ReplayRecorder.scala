package repro.ft

import java.util.concurrent.{ConcurrentHashMap, ConcurrentLinkedQueue}
import scala.jdk.CollectionConverters._
import repro.dataflow.{DTuple, FunctionUpdate, Operator, OpLogic, WorkerId}

/** Logging-based fault tolerance (Section 7.3): FCMs introduce
  * nondeterminism, so each worker logs the order of its nondeterministic
  * events — data arrivals and function-update applications — and recovery
  * replays them in the recorded order.
  */
sealed trait ReplayEvent
object ReplayEvent {

  /** A data operation: the input tuple and the outputs it produced. */
  final case class Process(t: DTuple, outputs: Seq[(Map[String, Any], Int)]) extends ReplayEvent

  /** A function-update application point in the worker's event order. */
  final case class Apply(update: FunctionUpdate) extends ReplayEvent
}

/** Thread-safe per-worker event log, populated by the engine when attached. */
final class ReplayRecorder {
  private val logs = new ConcurrentHashMap[WorkerId, ConcurrentLinkedQueue[ReplayEvent]]

  private def logOf(w: WorkerId) =
    logs.computeIfAbsent(w, _ => new ConcurrentLinkedQueue[ReplayEvent])

  def recordProcess(w: WorkerId, t: DTuple, outputs: Seq[(Map[String, Any], Int)]): Unit =
    logOf(w).add(ReplayEvent.Process(t, outputs))

  def recordApply(w: WorkerId, update: FunctionUpdate): Unit =
    logOf(w).add(ReplayEvent.Apply(update))

  def eventsOf(w: WorkerId): Vector[ReplayEvent] =
    Option(logs.get(w)).map(_.asScala.toVector).getOrElse(Vector.empty)
}

/** Deterministic single-worker replay: re-runs a fresh logic instance over
  * the recorded event order and reports the reproduced outputs and final
  * state. Because operator functions are deterministic, replaying the
  * recorded arrival order with FCMs injected at their original positions
  * reproduces the original execution exactly.
  */
object Replay {

  final case class Result(
      outputs: Vector[(Map[String, Any], Int)],
      finalVersion: Int,
      finalState: Any)

  def replayWorker(op: Operator, workerIdx: Int, events: Seq[ReplayEvent]): Result = {
    var logic: OpLogic = op.logic(workerIdx)
    var version = 0
    val out = Vector.newBuilder[(Map[String, Any], Int)]
    events.foreach {
      case ReplayEvent.Process(t, _) => out ++= logic.process(t)
      case ReplayEvent.Apply(update) =>
        logic = update(logic)
        version += 1
    }
    Result(out.result(), version, logic.state)
  }

  /** Checks that a replayed worker reproduces the recorded outputs. */
  def reproduces(op: Operator, workerIdx: Int, events: Seq[ReplayEvent]): Boolean = {
    val recorded = events.collect { case ReplayEvent.Process(_, o) => o }.flatten.toVector
    replayWorker(op, workerIdx, events).outputs == recorded
  }
}
