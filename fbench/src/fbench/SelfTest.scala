package fbench

import scala.util.Random
import repro.dataflow.Engine
import repro.sched.{FriesScheduler, NaiveFcmScheduler, ReconfigScheduler}
import repro.workflows.FigOne

/** Negative control for the benchmark's consistency gate (`Audit.run`):
  * the naive FCM scheduler with FM's FCM delivered 400 ms after MC's on
  * Figure 1 produces the paper's anomaly, which the gate must report; Fries
  * on the same run must pass it. Exits 0 only if both hold.
  */
object SelfTest {
  private val prm = FigOne.Params(fmCostNanos = 300_000L, loop = true, cap = 64)

  private val rows: Vector[Map[String, Any]] = {
    val rng = new Random(1)
    (0 until 2000).map { i =>
      Map[String, Any]("p_id" -> i.toLong, "p_user" -> (rng.nextInt(20) + 1).toLong,
        "p_merchant" -> (rng.nextInt(10) + 1).toLong,
        "p_amount" -> math.rint(rng.nextDouble() * 50000) / 100.0)
    }.toVector
  }

  private def violations(scheduler: ReconfigScheduler): Int = {
    val engine = new Engine(FigOne.dataflow(rows, prm), defaultCapacity = 64)
    engine.start()
    try {
      Thread.sleep(150)
      scheduler.execute(engine, FigOne.reconfiguration(prm), 60_000)
      Thread.sleep(100)
      engine.stopSources()
      engine.awaitCompletion(60_000)
    } finally engine.shutdownNow()
    Audit.run(engine, Set("FM", "MC")).violations
  }

  def main(args: Array[String]): Unit = {
    val naive = violations(new NaiveFcmScheduler(Map("FM" -> 400L)))
    val fries = violations(new FriesScheduler())
    println(s"gate violations: naive FCM with delayed FM delivery $naive (must be > 0), Fries $fries (must be 0)")
    val ok = naive > 0 && fries == 0
    println(if (ok) "selftest passed" else "selftest FAILED")
    System.exit(if (ok) 0 else 1)
  }
}
