package repro.sched

import org.scalatest.funsuite.AnyFunSuite
import repro.dataflow._
import repro.testutil.TestData
import repro.txn.{Serializability, VersionAudit}
import repro.workflows.{FigOne, Fig6, W4, W5}

/** End-to-end consistency (Section 4.2): run real reconfigurations on the
  * engine under load and audit the recorded schedule for
  * conflict-serializability. Fries / Epoch / multi-version must always be
  * consistent; the naive FCM scheduler must exhibit the paper's anomaly.
  */
class SchedulerConsistencySpec extends AnyFunSuite {

  /** Run `df` with a looping source, execute the reconfiguration after
    * `settleMs`, then stop sources, drain, and return the engine.
    */
  private def runWithReconfig(
      df: Dataflow,
      r: Reconfiguration,
      scheduler: ReconfigScheduler,
      settleMs: Long = 150,
      capacity: Int = 64): (Engine, ReconfigOutcome) = {
    val engine = new Engine(df, defaultCapacity = capacity)
    engine.start()
    Thread.sleep(settleMs)
    val outcome = scheduler.execute(engine, r, 60_000)
    Thread.sleep(100)
    engine.stopSources()
    engine.awaitCompletion(60_000)
    (engine, outcome)
  }

  private def audit(engine: Engine, ops: Set[String]) =
    VersionAudit.check(engine.log.dataRecords, ops)

  /** The abstract checker over the engine's schedule: each worker's log as
    * `Serializability` events, concatenated worker by worker. Conflicts are
    * only between operations on one worker, so per-worker order suffices.
    */
  private def serializabilityViolations(engine: Engine): Set[String] =
    Serializability.violations(engine.workers.keys.toVector.flatMap { w =>
      engine.log.eventsOf(w).map {
        case ScheduleLog.Process(t, _, _) => Serializability.DataOp(t.txnId.toString, w.toString)
        case ScheduleLog.Apply(_) => Serializability.UpdateOp(w.toString)
      }
    })

  /** Both consistency checkers must report the same transactions. */
  private def assertCheckersAgree(engine: Engine, violations: Seq[VersionAudit.Violation]): Unit =
    assert(serializabilityViolations(engine) == violations.map(_.txn.toString).toSet)

  private val figPrm = FigOne.Params(fmCostNanos = 300_000L, loop = true, cap = 64)
  private def figFlow = FigOne.dataflow(TestData.payments(2000), figPrm)

  test("naive FCM scheduler produces the Section 4.1 anomaly on Figure 1") {
    // Adversarial FCM delivery: MC updates 400ms before FM, so in-flight
    // tuples scored by the old FM hit the new MC (schedule S3).
    val (engine, _) = runWithReconfig(figFlow, FigOne.reconfiguration(figPrm),
      new NaiveFcmScheduler(Map("FM" -> 400L)))
    val violations = audit(engine, Set("FM", "MC"))
    assert(violations.nonEmpty, "expected non-conflict-serializable schedule")
    assertCheckersAgree(engine, violations)
    // The observable side effect: MC missing the score_m10 column.
    assert(engine.collected("SINK").exists(_.values("mc_error") == true))
  }

  test("Fries scheduler keeps Figure 1 conflict-serializable") {
    val (engine, outcome) = runWithReconfig(figFlow, FigOne.reconfiguration(figPrm),
      new FriesScheduler())
    val violations = audit(engine, Set("FM", "MC"))
    assert(violations.isEmpty)
    assertCheckersAgree(engine, violations)
    assert(!engine.collected("SINK").exists(_.values("mc_error") == true))
    // The MCS is the chain FM -> MC, headed by FM.
    assert(outcome.plans.flatMap(_.components).map(_.ops) == Vector(Set("FM", "MC")))
  }

  test("Fries on Figure 1: new-config outputs have all three probabilities") {
    val (engine, _) = runWithReconfig(figFlow, FigOne.reconfiguration(figPrm),
      new FriesScheduler())
    val out = engine.collected("SINK")
    val newOnes = out.filter(_.values.contains("score_m10"))
    assert(newOnes.nonEmpty, "no tuple processed by the new configuration")
    newOnes.foreach { t =>
      val expect = 0.4 * t.double("score_c") + 0.4 * t.double("score_m10") +
        0.2 * t.double("score_m")
      assert(math.abs(t.double("combined") - expect) < 1e-9)
    }
  }

  test("Epoch scheduler keeps Figure 1 conflict-serializable") {
    val (engine, _) = runWithReconfig(figFlow, FigOne.reconfiguration(figPrm),
      new EpochScheduler())
    assert(audit(engine, Set("FM", "MC")).isEmpty)
    assert(!engine.collected("SINK").exists(_.values("mc_error") == true))
  }

  test("multi-version scheduler keeps Figure 1 conflict-serializable") {
    val (engine, _) = runWithReconfig(figFlow, FigOne.reconfiguration(figPrm),
      new MultiVersionScheduler())
    assert(audit(engine, Set("FM", "MC")).isEmpty)
    assert(!engine.collected("SINK").exists(_.values("mc_error") == true))
  }

  test("multi-version: old-tagged in-flight tuples still use the old configuration") {
    val (engine, _) = runWithReconfig(figFlow, FigOne.reconfiguration(figPrm),
      new MultiVersionScheduler())
    val out = engine.collected("SINK")
    val oldTagged = out.filter(_.ver == 0)
    val newTagged = out.filter(_.ver == 1)
    assert(oldTagged.nonEmpty && newTagged.nonEmpty)
    assert(oldTagged.forall(!_.values.contains("score_m10")))
    assert(newTagged.forall(_.values.contains("score_m10")))
  }

  test("naive scheduler is safe on the Figure 6 dataflow even with delays") {
    // Each transaction passes exactly one of C, D: no synchronization needed
    // (Example 5.3).
    val df = Fig6.dataflow(TestData.payments(2000), cap = 64, loop = true)
    val r = Reconfiguration.dummy("C", "D")
    val (engine, _) = runWithReconfig(df, r, new NaiveFcmScheduler(Map("D" -> 300L)))
    assert(audit(engine, Set("C", "D")).isEmpty)
  }

  private def w4Flow = W4.dataflow(
    TestData.usersWithPayments(nUsers = 40, perUser = 40),
    W4.Params(p = 2, fdCostNanos = 200_000L, loop = true, srcCap = 16,
      unnestCap = 128, midCap = 64))

  test("naive FCM on the one-to-many W4 splits a transaction (Section 6.1)") {
    // FD1 receives 40 tuples per transaction; an immediate FCM lands inside
    // some transaction's batch with near certainty. Retry to de-flake.
    val found = (1 to 4).exists { _ =>
      val (engine, _) = runWithReconfig(w4Flow, Reconfiguration.dummy("FD1"),
        new NaiveFcmScheduler())
      audit(engine, Set("FD1")).nonEmpty
    }
    assert(found, "naive FCM never split a transaction across versions")
  }

  test("Fries on W4 synchronizes from the unnest and stays consistent") {
    val (engine, outcome) = runWithReconfig(w4Flow, Reconfiguration.dummy("FD1"),
      new FriesScheduler())
    assert(audit(engine, Set("FD1")).isEmpty)
    val comp = outcome.plans.flatMap(_.components)
    assert(comp.map(_.ops) == Vector(Set("U2", "FD1")))
    assert(comp.head.heads == Set("U2"))
  }

  test("Fries on W4 reconfiguring F2 spans both inference branches") {
    val (engine, outcome) = runWithReconfig(w4Flow, Reconfiguration.dummy("F2"),
      new FriesScheduler())
    assert(audit(engine, Set("F2")).isEmpty)
    assert(outcome.plans.flatMap(_.components).map(_.ops) ==
      Vector(Set("U2", "FD1", "FD2", "F2")))
  }

  private def w5Flow = W5.dataflow(
    TestData.payments(3000),
    W5.Params(p = 2, fdCostNanos = 100_000L, loop = true, srcCap = 32,
      branchCap = 128, midCap = 64))

  test("Fries with pruning on W5 {E1}: consistent despite the pruned MCS") {
    val (engine, outcome) = runWithReconfig(w5Flow, Reconfiguration.dummy("E1"),
      new FriesScheduler(pruning = true))
    assert(audit(engine, Set("E1")).isEmpty)
    assert(outcome.plans.flatMap(_.components).map(_.ops) == Vector(Set("E1")))
  }

  test("Fries on W5 {FD3, FD4}: unprunable replicate heads the component") {
    val (engine, outcome) = runWithReconfig(w5Flow, Reconfiguration.dummy("FD3", "FD4"),
      new FriesScheduler(pruning = true))
    assert(audit(engine, Set("FD3", "FD4")).isEmpty)
    val comp = outcome.plans.flatMap(_.components)
    assert(comp.map(_.ops) == Vector(Set("RE", "FD3", "F4", "FD4")))
    assert(comp.head.heads == Set("RE"))
  }

  test("naive FCM on W5 {FD3, FD4} with delay splits replicated twins") {
    val found = (1 to 4).exists { _ =>
      val (engine, _) = runWithReconfig(w5Flow, Reconfiguration.dummy("FD3", "FD4"),
        new NaiveFcmScheduler(Map("FD4" -> 300L)))
      audit(engine, Set("FD3", "FD4")).nonEmpty
    }
    assert(found)
  }

  test("Epoch scheduler on W5 stays consistent") {
    val (engine, _) = runWithReconfig(w5Flow, Reconfiguration.dummy("FD3", "FD4"),
      new EpochScheduler())
    assert(audit(engine, Set("FD3", "FD4")).isEmpty)
  }

  test("repeated Fries reconfigurations at random points stay consistent") {
    val rng = new scala.util.Random(5)
    (1 to 3).foreach { _ =>
      val (engine, _) = runWithReconfig(figFlow, FigOne.reconfiguration(figPrm),
        new FriesScheduler(), settleMs = 50 + rng.nextInt(200))
      assert(audit(engine, Set("FM", "MC")).isEmpty)
    }
  }

  test("reconfiguration outcome reports apply times for every target worker") {
    val schedulers = Seq(new NaiveFcmScheduler(), new EpochScheduler(),
      new MultiVersionScheduler(), new FriesScheduler())
    schedulers.foreach { scheduler =>
      val (_, outcome) = runWithReconfig(w5Flow, Reconfiguration.dummy("FD3", "FD4"), scheduler)
      assert(outcome.applyTimes.keySet ==
        Set(WorkerId("FD3", 0), WorkerId("FD3", 1), WorkerId("FD4", 0), WorkerId("FD4", 1)),
        scheduler.getClass.getSimpleName)
      assert(outcome.delayNanos >= 0)
    }
  }
}
