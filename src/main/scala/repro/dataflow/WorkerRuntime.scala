package repro.dataflow

import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.locks.LockSupport
import scala.collection.mutable
import WorkerRuntime.AlignState

object WorkerRuntime {
  private final case class AlignState(ctx: MarkerCtx, expected: Set[Int],
      arrived: mutable.Set[Int])
}

/** One worker of an operator: a thread that drains its control queue
  * between data messages (so FCMs bypass data, Definition 4.1), performs
  * epoch-marker alignment (Section 3.1), and applies function updates.
  * With nothing to do it parks until whoever enqueues work for it — a
  * `Channel.put` on an input or `Engine.sendControl` — calls [[wake]].
  */
final class WorkerRuntime(
    val id: WorkerId,
    val op: Operator,
    val inputs: Vector[Channel],
    val outPorts: Vector[OutPort],
    engine: Engine)
    extends Runnable {

  val control = new ConcurrentLinkedQueue[ControlMsg]
  inputs.foreach(_.consumer = this)
  // This worker's schedule-log queue; null when the log is disabled.
  private val logQ = engine.log.queueOf(id)

  // Set only while this worker is about to park or parked: a producer then
  // unparks `thread`, and otherwise pays just this volatile read.
  @volatile private var idle = false
  @volatile private var thread: Thread = _

  // All mutable state below is touched only by this worker's thread.
  private var logic: OpLogic = op.logic(id.idx)
  private var version: Int = 0
  // Multi-version mode (Section 4.1's FCM multi-version scheduler): version
  // label -> logic; the tuple's tag picks the configuration.
  private var multiVersion = false
  private val versions = new java.util.TreeMap[Int, OpLogic]()

  private val aligning = mutable.Map.empty[Long, AlignState]
  private val blocked = mutable.Set.empty[Int]
  private val eosChannels = mutable.Set.empty[Int]
  private var finished = false

  /** Read-only access for tests; safe after `awaitCompletion` or for
    * CollectLogic (which is internally concurrent).
    */
  def currentLogicForInspection: OpLogic = logic
  def currentVersion: Int = version

  /** Called after enqueueing work for this worker, from any thread. */
  private[dataflow] def wake(): Unit = if (idle) LockSupport.unpark(thread)

  override def run(): Unit =
    try {
      thread = Thread.currentThread()
      var rr = 0
      val n = inputs.size
      while (!finished) {
        // park returns silently on interrupt: surface it so shutdownNow()
        // terminates the thread promptly.
        if (thread.isInterrupted) throw new InterruptedException
        drainControl()
        var polled: Msg = null
        var chIdx = -1
        var i = 0
        while (i < n && polled == null) {
          val idx = (rr + i) % n
          if (!blocked(idx) && !eosChannels(idx)) {
            val m = inputs(idx).poll()
            if (m != null) { polled = m; chIdx = idx }
          }
          i += 1
        }
        rr = if (n == 0) 0 else (rr + 1) % n
        if (polled == null) {
          if (eosChannels.size == n) finish()
          else awaitWork()
        } else handle(chIdx, polled)
      }
    } catch {
      case _: InterruptedException => () // shutdownNow
    }

  /** Park until woken. `idle` is published before the queues are re-checked,
    * and producers enqueue before they read `idle`, so either the producer
    * sees `idle` and unparks, or this check sees its message: no wake-up is
    * lost. A spurious return just re-enters the run loop.
    */
  private def awaitWork(): Unit = {
    idle = true
    if (!hasWork) LockSupport.park(this)
    idle = false
  }

  private def hasWork: Boolean = {
    var i = 0
    while (i < inputs.size) {
      if (!blocked(i) && !eosChannels(i) && !inputs(i).isEmpty) return true
      i += 1
    }
    !control.isEmpty
  }

  private def drainControl(): Unit = {
    var c = control.poll()
    while (c != null) {
      handleControl(c)
      c = control.poll()
    }
  }

  private def handleControl(c: ControlMsg): Unit = c match {
    case ControlMsg.StartMarker(ctx) => markerStep(ctx)

    case ControlMsg.InstallVersion(v, update, done) =>
      if (!multiVersion) { multiVersion = true; versions.put(version, logic) }
      versions.put(v, update(logic))
      done.ack(id, v)

    case ControlMsg.BumpVersion(_) | ControlMsg.StopSource =>
      throw new IllegalArgumentException(s"source-only control message $c sent to worker $id")
  }

  private def handle(chIdx: Int, m: Msg): Unit = m match {
    case Msg.Data(t) => processData(t)
    case Msg.Marker(ctx) => onMarker(chIdx, ctx)
    case Msg.Eos =>
      eosChannels += chIdx
      // Markers can no longer arrive on an EOS'd channel: complete any
      // alignment that was still waiting for it (prevents shutdown hangs).
      aligning.values.toVector.foreach(checkAlignment)
      if (eosChannels.size == inputs.size) finish()
  }

  private def processData(t: DTuple): Unit = {
    val (use, verUsed) =
      if (multiVersion) { val e = versions.floorEntry(t.ver); (e.getValue, e.getKey) }
      else (logic, version)
    if (use.costNanos > 0) spin(use.costNanos)
    val outputs = use.process(t)
    if (logQ != null) logQ.add(ScheduleLog.Process(t, verUsed, outputs))
    outputs.foreach { case (values, port) =>
      outPorts(port).send(DTuple(t.txnId, t.ver, values))
    }
  }

  /** Simulated processing cost, lasting at least `nanos`. Park for coarse
    * sleeps, again after every early return (a spurious wake-up or a
    * leftover permit from [[wake]]); spin below ~100µs where parkNanos is
    * too imprecise. An interrupt ends the worker, as in the idle path.
    */
  private def spin(nanos: Long): Unit = {
    val end = System.nanoTime() + nanos
    if (nanos >= 100_000L) {
      var left = nanos
      while (left > 0) {
        LockSupport.parkNanos(left)
        if (thread.isInterrupted) throw new InterruptedException
        left = end - System.nanoTime()
      }
    } else while (System.nanoTime() < end) {}
  }

  // --------------------------------------------------------- marker logic
  private def onMarker(chIdx: Int, ctx: MarkerCtx): Unit = {
    if (!ctx.participantOps(id.op)) return // not for us; drop
    val st = aligning.getOrElseUpdate(ctx.id, {
      val expected = inputs.indices.filter(i => ctx.participantOps(inputs(i).from.op)).toSet
      AlignState(ctx, expected, mutable.Set.empty)
    })
    st.arrived += chIdx
    blocked += chIdx // aligned-barrier: stop draining this channel
    checkAlignment(st)
  }

  private def checkAlignment(st: AlignState): Unit = {
    val outstanding = st.expected.diff(st.arrived).diff(eosChannels)
    if (outstanding.isEmpty && aligning.contains(st.ctx.id)) {
      aligning -= st.ctx.id
      markerStep(st.ctx)
      // Unblock; a channel stays blocked if another in-flight alignment
      // already received its marker on it.
      blocked.clear()
      aligning.values.foreach(a => blocked ++= a.arrived)
    }
  }

  /** The marker step, taken by a worker where the marker starts and by any
    * worker where it aligns: apply this operator's update or take the
    * checkpoint snapshot, then forward the marker into the participants.
    */
  private def markerStep(ctx: MarkerCtx): Unit = {
    ctx.kind match {
      case MarkerKind.Reconfig =>
        ctx.updates.get(id.op).foreach { update =>
          logic = update(logic)
          version += 1
          if (logQ != null) logQ.add(ScheduleLog.Apply(update))
          ctx.done.ack(id, version)
        }
      case MarkerKind.Checkpoint =>
        ctx.done.ack(id, version, logic.state)
    }
    outPorts.foreach(_.forward(ctx))
  }

  private def finish(): Unit = {
    if (!finished) {
      finished = true
      logic.onFinish().foreach { case (values, port) =>
        outPorts(port).send(DTuple(-1L, version, values))
      }
      outPorts.foreach(_.sendAll(Msg.Eos))
    }
  }
}
