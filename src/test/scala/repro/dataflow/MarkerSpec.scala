package repro.dataflow

import org.scalatest.funsuite.AnyFunSuite
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
}
