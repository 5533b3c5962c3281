package repro.ft

import java.util.concurrent.CountDownLatch
import org.scalatest.funsuite.AnyFunSuite
import repro.dataflow._
import repro.sched.FriesScheduler
import repro.testutil.TestData
import repro.workflows.FigOne
import repro.workflows.Logics._

/** Section 7.3: checkpoint-based and logging-based fault tolerance under
  * Fries reconfigurations.
  */
class FaultToleranceSpec extends AnyFunSuite {

  private val prm = FigOne.Params(fmCostNanos = 200_000L, loop = true, cap = 64)
  private def figFlow = FigOne.dataflow(TestData.payments(2000), prm)

  test("an aligned checkpoint completes and captures every worker") {
    val engine = new Engine(figFlow)
    val coord = new CheckpointCoordinator(engine)
    engine.start()
    try {
      Thread.sleep(100)
      val id = coord.trigger().get
      assert(coord.awaitCompleted(id, 30_000))
      val snap = coord.completed(id)
      assert(snap.keySet.map(_.op) == Set("FC", "FM", "MC", "SINK"))
      assert(snap.values.forall(_.version == 0))
    } finally engine.shutdownNow()
  }

  test("checkpoint captures operator state (per-key windows)") {
    val engine = new Engine(figFlow)
    val coord = new CheckpointCoordinator(engine)
    engine.start()
    try {
      Thread.sleep(200)
      val id = coord.trigger().get
      assert(coord.awaitCompleted(id, 30_000))
      val fmState = coord.completed(id)(WorkerId("FM", 0)).state
        .asInstanceOf[Map[Any, Vector[Double]]]
      assert(fmState.nonEmpty)
      fmState.values.foreach(q => assert(q.nonEmpty && q.size <= 10))
    } finally engine.shutdownNow()
  }

  test("two coordinators on one engine each complete their own checkpoints") {
    val engine = new Engine(figFlow)
    val first = new CheckpointCoordinator(engine)
    val second = new CheckpointCoordinator(engine)
    val allWorkers = engine.workers.keySet
    engine.start()
    try {
      Thread.sleep(100)
      val id = first.trigger().get
      assert(first.awaitCompleted(id, 30_000), "first coordinator never completed")
      assert(first.completed(id).keySet == allWorkers)
      val other = second.trigger().get
      assert(other != id)
      assert(second.awaitCompleted(other, 30_000), "second coordinator never completed")
      assert(second.completed(other).keySet == allWorkers)
      assert(first.completed.keySet == Set(id))
    } finally engine.shutdownNow()
  }

  test("a reconfiguration request blocks new checkpoints until head FCMs are out") {
    val engine = new Engine(figFlow)
    val coord = new CheckpointCoordinator(engine)
    engine.start()
    try {
      coord.onReconfigRequested()
      assert(coord.isBlocked)
      assert(coord.trigger().isEmpty)
      coord.onHeadFcmsDelivered()
      assert(!coord.isBlocked)
      assert(coord.trigger().nonEmpty)
    } finally engine.shutdownNow()
  }

  test("in-flight checkpoints are canceled by a reconfiguration request") {
    val engine = new Engine(figFlow)
    val coord = new CheckpointCoordinator(engine)
    engine.start()
    try {
      Thread.sleep(100)
      val id = coord.trigger().get
      // Cancel before the backlogged markers can finish alignment.
      coord.onReconfigRequested()
      coord.onHeadFcmsDelivered()
      assert(!coord.awaitCompleted(id, 1_500), s"canceled checkpoint $id completed")
    } finally engine.shutdownNow()
  }

  test("checkpoints completed around a Fries reconfiguration are version-consistent") {
    (1 to 3).foreach { round =>
      val engine = new Engine(figFlow)
      val coord = new CheckpointCoordinator(engine)
      val scheduler = new FriesScheduler(checkpoint = Some(coord))
      engine.start()
      try {
        Thread.sleep(100)
        val before = coord.trigger()
        Thread.sleep(20L * round)
        scheduler.execute(engine, FigOne.reconfiguration(prm), 30_000)
        val after = coord.trigger()
        Thread.sleep(300)
        // Every checkpoint that committed must be all-old or all-new.
        coord.completed.keys.foreach { id =>
          assert(coord.isConsistent(id, Set("FM", "MC")),
            s"round $round: checkpoint $id mixed configurations")
        }
        (before.toSeq ++ after.toSeq).foreach(id => coord.awaitCompleted(id, 5_000))
        coord.completed.keys.foreach(id => assert(coord.isConsistent(id, Set("FM", "MC"))))
      } finally engine.shutdownNow()
    }
  }

  test("post-reconfiguration checkpoint captures the new configuration") {
    val engine = new Engine(figFlow)
    val coord = new CheckpointCoordinator(engine)
    val scheduler = new FriesScheduler(checkpoint = Some(coord))
    engine.start()
    try {
      Thread.sleep(100)
      scheduler.execute(engine, FigOne.reconfiguration(prm), 30_000)
      val id = coord.trigger().get
      assert(coord.awaitCompleted(id, 30_000))
      val versions = coord.completed(id).collect {
        case (w, r) if w.op == "FM" || w.op == "MC" => r.version
      }.toSet
      assert(versions == Set(1))
    } finally engine.shutdownNow()
  }

  // ------------------------------------------------- logging-based (replay)
  /** Figure 1 over `n` rows, reconfigured by Fries once the first `k` rows
    * reached the sink and before the source gate releases the rest, so FM and
    * MC process data both before and after their update.
    */
  private def runFigOneUpdatedAfter(n: Int, k: Int): (Dataflow, Engine) = {
    val gate = new CountDownLatch(1)
    val rows = TestData.payments(n)
    val fig = FigOne.dataflow(rows, prm.copy(loop = false))
    val df = fig.copy(sources = fig.sources.map(_.copy(rows = () => TestData.gated(rows, k, gate))))
    val engine = new Engine(df)
    engine.start()
    try {
      TestData.awaitCollected(engine, "SINK", k)
      new FriesScheduler().execute(engine, FigOne.reconfiguration(prm), 30_000)
      gate.countDown()
      engine.awaitCompletion(60_000)
      (df, engine)
    } finally engine.shutdownNow()
  }

  test("recorded worker executions replay deterministically, including the FCM point") {
    val (df, engine) = runFigOneUpdatedAfter(n = 300, k = 100)
    for (op <- Seq("FC", "FM", "MC"); w = WorkerId(op, 0)) {
      val events = engine.log.eventsOf(w)
      assert(events.nonEmpty, s"no events recorded for $w")
      assert(Replay.reproduces(df.opByName(op), 0, events), s"$w replay diverged")
    }
    // FM and MC log exactly one Apply (the reconfiguration), after the 100
    // rows released before it and before the 200 released after it.
    Seq("FM", "MC").foreach { op =>
      val events = engine.log.eventsOf(WorkerId(op, 0))
      val applies = events.indices.filter(i => events(i).isInstanceOf[ScheduleLog.Apply])
      assert(applies == Seq(100) && events.size == 301, s"$op: applies at $applies of ${events.size} events")
    }
  }

  test("replay reproduces the final state and version") {
    val (df, engine) = runFigOneUpdatedAfter(n = 200, k = 50)
    val w = WorkerId("FM", 0)
    val result = Replay.replayWorker(df.opByName("FM"), 0, engine.log.eventsOf(w))
    assert(result.finalVersion == 1 && result.finalVersion == engine.workers(w).currentVersion)
    assert(result.finalState == engine.logicOf(w).state)
  }

  test("replay of a cost-free worker with no reconfiguration is trivially faithful") {
    val rows = TestData.simpleRows(200)
    val df = Dataflow(
      sources = Vector(SourceSpec("SRC", () => rows.iterator)),
      ops = Vector(
        Operator("A", 1, _ => new Pass),
        Operator("SINK", 1, _ => new CollectLogic)),
      edges = Vector(EdgeSpec("SRC", "A"), EdgeSpec("A", "SINK")))
    val engine = new Engine(df)
    engine.start()
    engine.awaitCompletion(30_000)
    assert(Replay.reproduces(df.opByName("A"), 0, engine.log.eventsOf(WorkerId("A", 0))))
  }
}
