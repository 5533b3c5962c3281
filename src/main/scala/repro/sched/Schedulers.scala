package repro.sched

import repro.core.{FriesPlanner, ReconfigPlan, Regions}
import repro.dataflow._
import repro.ft.CheckpointCoordinator

/** Result of executing one reconfiguration request.
  *
  * @param requestedAtNanos time the request was submitted to the scheduler
  * @param applyTimes       time each target worker applied its update
  * @param plans            Fries plans (one per pipelined region), when the
  *                         scheduler planned an MCS
  */
final case class ReconfigOutcome(
    reconfigId: Long,
    requestedAtNanos: Long,
    applyTimes: Map[WorkerId, Long],
    plans: Vector[ReconfigPlan[String]] = Vector.empty) {

  /** Reconfiguration delay (Section 3.2): request submission to the moment
    * the new configuration took effect in all target workers.
    */
  def delayNanos: Long = applyTimes.values.max - requestedAtNanos
  def delayMillis: Double = delayNanos / 1e6

  /** Delay until a specific operator's workers all applied. */
  def delayMillisOf(op: String): Double =
    (applyTimes.collect { case (w, t) if w.op == op => t }.max - requestedAtNanos) / 1e6
}

/** A runtime-reconfiguration scheduler (Definition 2.1 / Section 3-6). */
trait ReconfigScheduler {

  /** Apply reconfiguration `r` to the running `engine`; blocks until every
    * target worker has applied its update (or the timeout fails the call).
    */
  def execute(engine: Engine, r: Reconfiguration, timeoutMs: Long = 120_000): ReconfigOutcome

  /** The request path every scheduler shares: a fresh id and a completion
    * that expects one ack per target worker, then `send` hands the request
    * to the engine, then wait until every target worker applied.
    */
  protected def request(engine: Engine, r: Reconfiguration, timeoutMs: Long, what: String,
      plans: Vector[ReconfigPlan[String]] = Vector.empty)(
      send: (Long, Completion) => Unit): ReconfigOutcome = {
    val rid = engine.newReconfigId()
    val done = new Completion(r.ops.toSeq.map(engine.df.parallelismOf).sum)
    val t0 = System.nanoTime()
    send(rid, done)
    require(done.await(timeoutMs), s"$what of ${r.ops} did not complete within ${timeoutMs}ms")
    ReconfigOutcome(rid, t0, done.acks.map { case (w, a) => w -> a.atNanos }, plans)
  }
}

/** The epoch-based scheduler ("Epoch scheduler" / EBR of Chi, Section 3.1):
  * the controller starts a new epoch at every source and piggybacks the
  * reconfiguration on the epoch marker; every operator aligns markers from
  * all inputs and reconfiguration operators apply the update at alignment.
  * The delay includes draining every in-flight tuple of the old epoch
  * upstream of the targets (Section 3.2).
  */
final class EpochScheduler extends ReconfigScheduler {
  override def execute(engine: Engine, r: Reconfiguration, timeoutMs: Long): ReconfigOutcome =
    request(engine, r, timeoutMs, "epoch reconfiguration") { (rid, done) =>
      engine.startMarker(engine.sourceRuntimes.keys,
        MarkerCtx(rid, MarkerKind.Reconfig, engine.df.dag.vertexSet, r.updates, done))
    }
}

/** The naive FCM scheduler (Section 4.1): an FCM straight to every target
  * worker, applied immediately after the current tuple — fast but with no
  * synchronization between targets, so it can produce non-conflict-
  * serializable schedules (schedule S3 of the paper). Each target operator
  * is its own singleton component, so no marker leaves it.
  *
  * @param deliveryDelayMs optional artificial per-operator FCM delivery
  *                        delay; tests use it to deterministically exhibit
  *                        the consistency anomaly
  */
final class NaiveFcmScheduler(deliveryDelayMs: Map[String, Long] = Map.empty)
    extends ReconfigScheduler {
  override def execute(engine: Engine, r: Reconfiguration, timeoutMs: Long): ReconfigOutcome =
    request(engine, r, timeoutMs, "naive FCM reconfiguration") { (rid, done) =>
      r.updates.toSeq.sortBy { case (op, _) => deliveryDelayMs.getOrElse(op, 0L) }.foreach {
        case (op, update) =>
          val delay = deliveryDelayMs.getOrElse(op, 0L)
          if (delay > 0) Thread.sleep(delay)
          engine.startMarker(engine.workersOf(op),
            MarkerCtx(rid, MarkerKind.Reconfig, Set(op), Map(op -> update), done))
      }
    }
}

/** The FCM multi-version scheduler (Section 4.1): installs the new
  * configuration next to the old one on every target worker, then bumps the
  * version tag at the sources; every tuple is processed by the
  * configuration matching its tag, so transactions are never split across
  * versions. The cost the paper criticizes — double state and old-version
  * in-flight tuples still processed by the old configuration — is inherent
  * and observable in the engine.
  */
final class MultiVersionScheduler(newVersion: Int = 1) extends ReconfigScheduler {
  override def execute(engine: Engine, r: Reconfiguration, timeoutMs: Long): ReconfigOutcome = {
    val outcome = request(engine, r, timeoutMs, "multi-version install") { (_, done) =>
      r.updates.foreach { case (op, update) =>
        engine.workersOf(op).foreach(
          engine.sendControl(_, ControlMsg.InstallVersion(newVersion, update, done)))
      }
    }
    engine.sourceRuntimes.keys.foreach(engine.sendControl(_, ControlMsg.BumpVersion(newVersion)))
    outcome
  }
}

/** The Fries scheduler (Algorithms 2–4): plans the minimal covering
  * sub-DAG over the synchronization set (reconfiguration operators plus
  * their unpruned earliest one-to-many ancestors), then for each MCS
  * component sends FCMs to the head workers, which apply their own update
  * (if any) and propagate an epoch marker *within the component only*.
  * Operators outside the MCS never see a marker, which is where the delay
  * win over the epoch scheduler comes from.
  *
  * Dataflows with blocking operators are first split into pipelined regions
  * (Section 7.1) and each region's reconfiguration operators are planned on
  * the region's sub-DAG.
  *
  * @param pruning    apply the Section 6.3 pruning rules (Algorithm 4)
  * @param checkpoint optional checkpoint coordinator to protect
  *                   (Section 7.3): in-flight checkpoints are canceled and
  *                   new ones blocked until all head FCMs are delivered
  */
final class FriesScheduler(
    pruning: Boolean = true,
    checkpoint: Option[CheckpointCoordinator] = None)
    extends ReconfigScheduler {

  /** Pure planning (exposed for inspection and the table harnesses). */
  def plan(df: Dataflow, reconfigOps: Set[String]): Vector[ReconfigPlan[String]] = {
    val regions = Regions.pipelinedRegions(df.dag, df.blockingOps)
    regions.flatMap { region =>
      val inRegion = reconfigOps.intersect(region.vertexSet)
      if (inRegion.isEmpty) None
      else Some(FriesPlanner.plan(region, inRegion, df.plannerMeta, pruning))
    }
  }

  override def execute(engine: Engine, r: Reconfiguration, timeoutMs: Long): ReconfigOutcome = {
    val plans = plan(engine.df, r.ops)
    checkpoint.foreach(_.onReconfigRequested())
    request(engine, r, timeoutMs, "Fries reconfiguration", plans) { (rid, done) =>
      for (p <- plans; comp <- p.components) {
        val ctx = MarkerCtx(rid, MarkerKind.Reconfig, comp.ops,
          r.updates.view.filterKeys(comp.ops).toMap, done)
        engine.startMarker(comp.heads.toSeq.flatMap(engine.workersOf), ctx)
      }
      checkpoint.foreach(_.onHeadFcmsDelivered())
    }
  }
}
