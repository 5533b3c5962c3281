package repro.dataflow

import java.util.concurrent.CountDownLatch
import scala.concurrent.{Await, Future}
import scala.concurrent.ExecutionContext.Implicits.global
import scala.concurrent.duration._
import org.scalatest.funsuite.AnyFunSuite
import repro.ft.CheckpointCoordinator
import repro.sched.FriesScheduler
import repro.testutil.TestData
import repro.workflows.Logics._

class MarkerSpec extends AnyFunSuite {

  private def twoSourceUnion(loop: Boolean = true): Dataflow = {
    val rows = TestData.simpleRows(100)
    Dataflow(
      sources = Vector(
        SourceSpec("S1", () => rows.iterator, loop = loop),
        SourceSpec("S2", () => rows.iterator, loop = loop)),
      ops = Vector(
        Operator("U", 1, _ => new Pass),
        Operator("SINK", 1, _ => new CollectLogic)),
      edges = Vector(
        EdgeSpec("S1", "U"), EdgeSpec("S2", "U"), EdgeSpec("U", "SINK")))
  }

  private def reconfigCtx(engine: Engine, ops: Set[String], targets: Map[String, FunctionUpdate],
      acks: Int) =
    MarkerCtx(engine.newReconfigId(), MarkerKind.Reconfig, ops, targets, new Completion(acks))

  test("epoch alignment waits for markers from ALL inputs") {
    val df = twoSourceUnion()
    val engine = new Engine(df)
    engine.start()
    try {
      val ctx = reconfigCtx(engine, Set("S1", "S2", "U", "SINK"),
        Map("U" -> FunctionUpdate.identity), 1)
      // Marker only from S1: U must NOT apply.
      engine.sendControl(WorkerId("S1", 0), ControlMsg.StartMarker(ctx))
      assert(!ctx.done.await(300), "applied without alignment")
      // Marker from S2 completes the alignment.
      engine.sendControl(WorkerId("S2", 0), ControlMsg.StartMarker(ctx))
      assert(ctx.done.await(10_000), "never applied")
    } finally engine.shutdownNow()
  }

  test("marker is forwarded only into participating operators") {
    val rows = TestData.simpleRows(100)
    val df = Dataflow(
      sources = Vector(SourceSpec("SRC", () => rows.iterator, loop = true)),
      ops = Vector(
        Operator("A", 1, _ => new Pass),
        Operator("B", 1, _ => new Pass),
        Operator("SINK", 1, _ => new CollectLogic)),
      edges = Vector(EdgeSpec("SRC", "A"), EdgeSpec("A", "B"), EdgeSpec("B", "SINK")))
    val engine = new Engine(df)
    engine.start()
    try {
      // Fries-style component {A}: a StartMarker on A applies the update
      // and must not leak a marker to B (B is not a participant).
      val ctx = reconfigCtx(engine, Set("A"), Map("A" -> FunctionUpdate.identity), 1)
      engine.sendControl(WorkerId("A", 0), ControlMsg.StartMarker(ctx))
      assert(ctx.done.await(10_000))
      Thread.sleep(200)
      assert(engine.workers(WorkerId("A", 0)).currentVersion == 1)
      assert(engine.workers(WorkerId("B", 0)).currentVersion == 0)
    } finally engine.shutdownNow()
  }

  test("component marker: head applies immediately, downstream at alignment") {
    val rows = TestData.simpleRows(100)
    val df = Dataflow(
      sources = Vector(SourceSpec("SRC", () => rows.iterator, loop = true)),
      ops = Vector(
        Operator("A", 2, _ => new Pass),
        Operator("B", 2, _ => new Pass),
        Operator("SINK", 1, _ => new CollectLogic)),
      edges = Vector(
        EdgeSpec("SRC", "A", Partition.Hash("k")),
        EdgeSpec("A", "B", Partition.Hash("k")),
        EdgeSpec("B", "SINK")))
    val engine = new Engine(df)
    engine.start()
    try {
      val ctx = reconfigCtx(engine, Set("A", "B"),
        Map("A" -> FunctionUpdate.identity, "B" -> FunctionUpdate.identity), 4)
      engine.workersOf("A").foreach(
        engine.sendControl(_, ControlMsg.StartMarker(ctx)))
      assert(ctx.done.await(10_000))
      (engine.workersOf("A") ++ engine.workersOf("B")).foreach { w =>
        assert(engine.workers(w).currentVersion == 1, s"$w not updated")
      }
    } finally engine.shutdownNow()
  }

  test("alignment completes when an expected channel hits end-of-stream") {
    // S1 finite and exhausted, S2 looping: a marker injected only at S2
    // still completes U's alignment once S1's channel EOSes.
    val rows = TestData.simpleRows(5)
    val df = Dataflow(
      sources = Vector(
        SourceSpec("S1", () => rows.iterator),
        SourceSpec("S2", () => rows.iterator, loop = true)),
      ops = Vector(
        Operator("U", 1, _ => new Pass),
        Operator("SINK", 1, _ => new CollectLogic)),
      edges = Vector(EdgeSpec("S1", "U"), EdgeSpec("S2", "U"), EdgeSpec("U", "SINK")))
    val engine = new Engine(df)
    engine.start()
    try {
      Thread.sleep(300) // let S1 finish
      val ctx = reconfigCtx(engine, Set("S1", "S2", "U", "SINK"),
        Map("U" -> FunctionUpdate.identity), 1)
      engine.sendControl(WorkerId("S2", 0), ControlMsg.StartMarker(ctx))
      assert(ctx.done.await(10_000))
    } finally engine.shutdownNow()
  }

  test("update replaces the logic and transforms the state") {
    val rows = TestData.payments(200)
    val df = Dataflow(
      sources = Vector(SourceSpec("SRC", () => rows.iterator, ratePerSec = 2000)),
      ops = Vector(
        Operator("FD", 1, _ => new FraudScore("p_user", "p_amount", "s", 10)),
        Operator("SINK", 1, _ => new CollectLogic)),
      edges = Vector(EdgeSpec("SRC", "FD"), EdgeSpec("FD", "SINK")))
    val engine = new Engine(df)
    val update = FunctionUpdate.replace(
      s => new FraudScore("p_user", "p_amount", "s", 3, modelTag = 1,
        initial = s.asInstanceOf[Map[Any, Vector[Double]]]),
      transform = FraudScore.rewindow(3))
    val ctx = reconfigCtx(engine, Set("FD"), Map("FD" -> update), 1)
    engine.start()
    engine.sendControl(WorkerId("FD", 0), ControlMsg.StartMarker(ctx))
    engine.awaitCompletion(30_000)
    assert(ctx.done.await(0))
    val st = engine.logicOf(WorkerId("FD", 0)).state.asInstanceOf[Map[Any, Vector[Double]]]
    // New window is 3: no per-user queue may exceed it.
    st.values.foreach(q => assert(q.size <= 3))
    // Post-update outputs carry the new model tag.
    assert(engine.collected("SINK").exists(_.values("s_model") == 1))
  }

  private def tagWith(tag: Int): OpLogic = new MapFilter(m => Some(m + ("tag" -> tag)))

  test("an update reaches an idle worker at once, and the rest of the stream sees it") {
    val gate = new CountDownLatch(1)
    val rows = TestData.simpleRows(10)
    val df = Dataflow(
      sources = Vector(SourceSpec("SRC", () => TestData.gated(rows, 5, gate))),
      ops = Vector(
        Operator("MID", 1, _ => tagWith(0)),
        Operator("SINK", 1, _ => new CollectLogic)),
      edges = Vector(EdgeSpec("SRC", "MID"), EdgeSpec("MID", "SINK")))
    val engine = new Engine(df)
    engine.start()
    try {
      TestData.awaitCollected(engine, "SINK", 5) // every worker is idle now
      // Only the control-queue wake-up can get this applied within 1 s.
      new FriesScheduler().execute(engine,
        Reconfiguration.of("MID" -> FunctionUpdate.replace(_ => tagWith(1))), timeoutMs = 1_000)
      gate.countDown()
      engine.awaitCompletion(10_000)
      val tags = engine.collected("SINK").map(t => t.long("k") -> t("tag")).toMap
      assert(tags == (0 until 10).map(k => k.toLong -> (if (k < 5) 0 else 1)).toMap)
    } finally engine.shutdownNow()
  }

  test("no wake-up is lost: 200 diamond runs at channel capacity 1 with a reconfiguration and a checkpoint") {
    // SRC -> A -> {B, C} -> D -> SINK. The source stops at a gate after 10,
    // 20 and 60 rows. Each request is sent at a gate and the gate is then
    // opened, so its markers race with data, and no target can finish before
    // the request completes. A lost wake-up hangs a run instead of passing.
    val rows = TestData.simpleRows(60)
    for (run <- 1 to 200) {
      val Seq(g1, g2, g3) = Seq.fill(3)(new CountDownLatch(1))
      val df = Dataflow(
        sources = Vector(SourceSpec("SRC", () =>
          TestData.gated(rows.take(10), 10, g1) ++ TestData.gated(rows.slice(10, 20), 10, g2) ++
            TestData.gated(rows.drop(20), 40, g3))),
        ops = Vector(
          Operator("A", 1, _ => new Replicate(2)),
          Operator("B", 2, _ => new Pass),
          Operator("C", 2, _ => new Pass),
          Operator("D", 1, _ => new Pass),
          Operator("SINK", 1, _ => new CollectLogic)),
        edges = Vector(
          EdgeSpec("SRC", "A"),
          EdgeSpec("A", "B", Partition.Hash("k")),
          EdgeSpec("A", "C", Partition.Hash("k")),
          EdgeSpec("B", "D"),
          EdgeSpec("C", "D"),
          EdgeSpec("D", "SINK")))
      val engine = new Engine(df, defaultCapacity = 1)
      val deadline = System.nanoTime() + 10_000_000_000L
      def leftMs = math.max(1L, (deadline - System.nanoTime()) / 1_000_000L)
      engine.start()
      try {
        val reconfig = Future(new FriesScheduler().execute(engine, Reconfiguration.dummy("B", "D"), leftMs))
        g1.countDown()
        Await.result(reconfig, leftMs.millis)
        val coord = new CheckpointCoordinator(engine)
        val cp = coord.trigger().get
        g2.countDown()
        assert(coord.awaitCompleted(cp, leftMs), s"run $run: the checkpoint did not complete")
        g3.countDown()
        engine.awaitCompletion(leftMs)
        assert(engine.collected("SINK").size == 2 * rows.size, s"run $run")
      } finally engine.shutdownNow()
    }
  }
}
