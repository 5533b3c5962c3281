package repro.ft

import java.util.concurrent.ConcurrentHashMap
import scala.jdk.CollectionConverters._
import repro.dataflow._

/** Checkpoint-based fault tolerance under Fries (Section 7.3).
  *
  * Aligned checkpoints (epoch-marker based, as in Flink) are coordinated
  * here. Because Fries FCMs overtake data, a checkpoint whose markers are
  * in flight when a reconfiguration arrives could capture a mix of old and
  * new configurations (the Figure 7 race). The paper's fix, implemented
  * here: when a reconfiguration request arrives the coordinator *cancels*
  * all in-flight checkpoints and *blocks* new ones until every head
  * operator of each MCS component has received its FCM; subsequent markers
  * are then guaranteed to trail the FCMs, so completed checkpoints only
  * ever contain fully old or fully new configurations.
  *
  * A checkpoint is one marker started at every source, with every vertex
  * participating. Each worker snapshots its state and config version when
  * the marker aligns and acks it on the checkpoint's own [[Completion]];
  * the last ack commits the snapshot here unless the checkpoint was
  * canceled first. Checkpoint ids are marker ids from the engine, so
  * several coordinators on one engine never share an alignment.
  *
  * Source offsets are not snapshot (a deliberate simplification —
  * replaying a source from an offset is orthogonal to the consistency
  * property under study).
  */
final class CheckpointCoordinator(engine: Engine) {

  private val pending = new ConcurrentHashMap[Long, Completion]
  private val completedMap = new ConcurrentHashMap[Long, Map[WorkerId, Ack]]
  @volatile private var blockedForReconfig = false

  private val totalWorkers: Int = engine.df.ops.map(_.parallelism).sum

  /** Start an aligned checkpoint; returns its id, or None while checkpoints
    * are blocked by an in-flight reconfiguration.
    */
  def trigger(): Option[Long] = synchronized {
    if (blockedForReconfig) None
    else {
      val id = engine.newReconfigId()
      val done = new Completion(totalWorkers, commit(id, _))
      pending.put(id, done)
      engine.startMarker(engine.sourceRuntimes.keys,
        MarkerCtx(id, MarkerKind.Checkpoint, engine.df.dag.vertexSet, Map.empty, done))
      Some(id)
    }
  }

  /** Runs on the worker that took the last snapshot. A cancel racing with
    * it must win, otherwise an inconsistent snapshot could commit.
    */
  private def commit(id: Long, done: Completion): Unit = synchronized {
    if (pending.remove(id) != null) completedMap.put(id, done.acks)
  }

  /** Reconfiguration arrived: cancel in-flight checkpoints and block new
    * ones (Section 7.3, "Checkpoint-based fault tolerance").
    */
  def onReconfigRequested(): Unit = synchronized {
    pending.clear()
    blockedForReconfig = true
  }

  /** All head FCMs of the reconfiguration have been handed to their
    * workers' control queues: new checkpoints may start again.
    */
  def onHeadFcmsDelivered(): Unit = synchronized { blockedForReconfig = false }

  def isBlocked: Boolean = blockedForReconfig

  def awaitCompleted(id: Long, timeoutMs: Long): Boolean = {
    val p = pending.get(id)
    if (p == null) completedMap.containsKey(id)
    else p.await(timeoutMs) && completedMap.containsKey(id)
  }

  /** Committed (completed, never-canceled) checkpoints. */
  def completed: Map[Long, Map[WorkerId, Ack]] = completedMap.asScala.toMap

  /** A completed checkpoint is consistent w.r.t. a reconfiguration iff all
    * workers of the reconfigured operators were captured at the same config
    * version (all-old or all-new).
    */
  def isConsistent(id: Long, reconfigOps: Set[String]): Boolean =
    completedMap.asScala.get(id).exists { reports =>
      reports.collect { case (w, r) if reconfigOps(w.op) => r.version }.toSet.sizeIs <= 1
    }
}
