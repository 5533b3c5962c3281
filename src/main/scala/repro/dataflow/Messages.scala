package repro.dataflow

import java.util.concurrent.{ConcurrentHashMap, CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger
import scala.jdk.CollectionConverters._

/** Identifies one worker of an operator in the parallel dataflow G*
  * (Section 7.2).
  */
final case class WorkerId(op: String, idx: Int) {
  override def toString: String = s"$op#$idx"
}

/** What a marker is synchronizing. */
sealed trait MarkerKind
object MarkerKind {

  /** Epoch marker carrying (part of) a reconfiguration — used by the
    * epoch-based scheduler (through the whole dataflow), by Fries (within
    * one MCS component) and by naive FCM (within one target operator).
    */
  case object Reconfig extends MarkerKind

  /** Aligned-checkpoint marker (Section 7.3). */
  case object Checkpoint extends MarkerKind
}

/** One worker's acknowledgement of a request: when it applied its update
  * (or took its snapshot) and its configuration version at that point. Only
  * a checkpoint snapshot captures the operator `state`; it is null otherwise,
  * so an update pays no state copy.
  */
final case class Ack(atNanos: Long, version: Int, state: Any)

/** Completion of one request, carried by the request itself: each
  * acknowledging worker records its [[Ack]], and the request is done once
  * `expected` acks arrived.
  *
  * @param onDone run once, on the thread of the last ack, before `await`
  *               returns; the checkpoint coordinator commits from it
  */
final class Completion(expected: Int, onDone: Completion => Unit = _ => ()) {
  require(expected > 0, "a request needs at least one acknowledging worker")
  private val remaining = new AtomicInteger(expected)
  private val done = new CountDownLatch(1)
  private val acked = new ConcurrentHashMap[WorkerId, Ack]

  def ack(w: WorkerId, version: Int, state: Any = null): Unit = {
    acked.put(w, Ack(System.nanoTime(), version, state))
    if (remaining.decrementAndGet() == 0) {
      onDone(this)
      done.countDown()
    }
  }

  def await(timeoutMs: Long): Boolean = done.await(timeoutMs, TimeUnit.MILLISECONDS)

  def acks: Map[WorkerId, Ack] = acked.asScala.toMap
}

/** Context attached to an epoch marker. Mirrors the paper's Flink
  * implementation (Section 8.1): "the checkpoint barrier also included C
  * and the reconfiguration operators in C" — workers learn from the marker
  * which downstream operators are in the component and which must apply
  * the update.
  *
  * @param id             unique marker id, from `Engine.newReconfigId`
  * @param participantOps operators (and sources) that align and forward
  *                       this marker; for the epoch scheduler and
  *                       checkpoints this is every vertex, for Fries one MCS
  *                       component, for naive FCM one target operator
  * @param updates        function updates keyed by logical operator name
  * @param done           acked once per applied update (per worker) or, for
  *                       checkpoints, once per snapshot
  */
final case class MarkerCtx(
    id: Long,
    kind: MarkerKind,
    participantOps: Set[String],
    updates: Map[String, FunctionUpdate],
    done: Completion)

/** Messages traveling on data channels, in FIFO order. */
sealed trait Msg
object Msg {
  final case class Data(t: DTuple) extends Msg
  final case class Marker(ctx: MarkerCtx) extends Msg
  case object Eos extends Msg
}

/** Fast control messages (Definition 4.1): delivered on a per-worker
  * control queue that the worker drains between data messages, so they are
  * never blocked behind buffered data.
  */
sealed trait ControlMsg
object ControlMsg {

  /** Start marker `ctx` at this worker or source: the one way a request
    * enters the dataflow. A worker takes the same step as when the marker
    * aligns — apply its update (or snapshot), then forward the marker into
    * the participants (Algorithm 2, lines 4–6); a source only forwards.
    * Schedulers differ only in where they start it: the sources (epoch
    * scheduler, checkpoints), the MCS heads (Fries), or each target worker
    * as a singleton component (naive FCM, Section 4.1).
    */
  final case class StartMarker(ctx: MarkerCtx) extends ControlMsg

  /** Multi-version scheduler: install an additional configuration version
    * side-by-side with the current one (Section 4.1).
    */
  final case class InstallVersion(version: Int, update: FunctionUpdate, done: Completion)
      extends ControlMsg

  /** Multi-version scheduler: source starts tagging tuples with `version`. */
  final case class BumpVersion(version: Int) extends ControlMsg

  /** Ask a source worker to stop emitting and send end-of-stream. */
  case object StopSource extends ControlMsg
}
