package repro.dataflow

import java.util.concurrent.CountDownLatch
import org.scalatest.funsuite.AnyFunSuite
import repro.dataflow.ScheduleLog.{Apply, Process}
import repro.sched.FriesScheduler
import repro.testutil.TestData
import repro.workflows.Logics._

class ScheduleLogSpec extends AnyFunSuite {

  /** SRC -> A (p workers) -> SINK over 10 rows. A is updated once the first
    * 5 rows reached the sink and before the source gate opens, so rows 0-4
    * are processed by version 0 and rows 5-9 by version 1.
    */
  private def runWithUpdateAfterFive(p: Int, logEnabled: Boolean = true): Engine = {
    val gate = new CountDownLatch(1)
    val rows = TestData.simpleRows(10)
    val df = Dataflow(
      sources = Vector(SourceSpec("SRC", () => TestData.gated(rows, 5, gate))),
      ops = Vector(
        Operator("A", p, _ => new Pass),
        Operator("SINK", 1, _ => new CollectLogic)),
      edges = Vector(
        EdgeSpec("SRC", "A", Partition.RoundRobin),
        EdgeSpec("A", "SINK", Partition.RoundRobin)))
    val engine = new Engine(df, logEnabled = logEnabled)
    engine.start()
    try {
      TestData.awaitCollected(engine, "SINK", 5)
      new FriesScheduler().execute(engine, Reconfiguration.dummy("A"), 10_000)
      gate.countDown()
      engine.awaitCompletion(10_000)
      engine
    } finally engine.shutdownNow()
  }

  test("each worker logs its own order: data operations around the update it applied") {
    val engine = runWithUpdateAfterFive(p = 1)
    val order = engine.log.eventsOf(WorkerId("A", 0)).map {
      case Process(t, v, outputs) =>
        assert(outputs.map(_._1) == Seq(t.values))
        s"${t.long("k")}@v$v"
      case Apply(_) => "apply"
    }
    assert(order == (0 until 5).map(k => s"$k@v0") ++ Seq("apply") ++ (5 until 10).map(k => s"$k@v1"))
    val atSink = engine.log.eventsOf(WorkerId("SINK", 0))
    assert(atSink.size == 10 && atSink.forall { case Process(_, v, _) => v == 0; case _ => false })
  }

  test("dataRecords expose the audit view") {
    val engine = runWithUpdateAfterFive(p = 2)
    val keyOf = engine.collected("SINK").map(t => t.txnId -> t.long("k")).toMap
    val atA = engine.log.dataRecords.filter(_.op == "A")
    assert(atA.size == 10)
    assert(atA.map(_.worker).toSet == Set("A#0", "A#1"))
    assert(atA.map(r => keyOf(r.txn) -> r.version).toMap ==
      (0 until 10).map(k => k.toLong -> (if (k < 5) 0 else 1)).toMap)
    assert(engine.log.dataRecords.count(_.op == "SINK") == 10)
  }

  test("disabled log records nothing (zero data-path bookkeeping)") {
    val engine = runWithUpdateAfterFive(p = 2, logEnabled = false)
    assert(engine.collected("SINK").size == 10)
    assert(engine.log.dataRecords.isEmpty)
    engine.workers.keys.foreach(w => assert(engine.log.eventsOf(w).isEmpty, s"$w logged events"))
  }
}
