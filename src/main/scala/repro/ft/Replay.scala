package repro.ft

import repro.dataflow.{Operator, OpLogic}
import repro.dataflow.ScheduleLog.{Apply, Event, Process}

/** Logging-based fault tolerance (Section 7.3): FCMs introduce
  * nondeterminism, so each worker logs the order of its nondeterministic
  * events — data arrivals and function-update applications — in the
  * engine's `ScheduleLog`, and recovery replays them in the recorded order.
  *
  * Deterministic single-worker replay re-runs a fresh logic instance over a
  * worker's events and reports the reproduced outputs and final state.
  * Because operator functions are deterministic, replaying the recorded
  * arrival order with FCMs injected at their original positions reproduces
  * the original execution exactly.
  */
object Replay {

  final case class Result(
      outputs: Vector[(Map[String, Any], Int)],
      finalVersion: Int,
      finalState: Any)

  def replayWorker(op: Operator, workerIdx: Int, events: Seq[Event]): Result = {
    var logic: OpLogic = op.logic(workerIdx)
    var version = 0
    val out = Vector.newBuilder[(Map[String, Any], Int)]
    events.foreach {
      case Process(t, _, _) => out ++= logic.process(t)
      case Apply(update) =>
        logic = update(logic)
        version += 1
    }
    Result(out.result(), version, logic.state)
  }

  /** Checks that a replayed worker reproduces the recorded outputs. */
  def reproduces(op: Operator, workerIdx: Int, events: Seq[Event]): Boolean = {
    val recorded = events.collect { case Process(_, _, o) => o }.flatten.toVector
    replayWorker(op, workerIdx, events).outputs == recorded
  }
}
