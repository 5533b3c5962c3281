package repro.testutil

import java.util.concurrent.CountDownLatch
import scala.util.Random
import repro.dataflow.Engine

/** Pure-Scala deterministic row generators for engine-only tests (the
  * Spark-generated datasets are exercised in the workflow/data suites; the
  * engine suites stay Spark-free so they run in milliseconds).
  */
object TestData {

  def payments(n: Int, nUsers: Int = 20, nMerchants: Int = 10, seed: Long = 1): Vector[Map[String, Any]] = {
    val rng = new Random(seed)
    (0 until n).map { i =>
      Map[String, Any](
        "p_id" -> i.toLong,
        "p_user" -> (rng.nextInt(nUsers) + 1).toLong,
        "p_merchant" -> (rng.nextInt(nMerchants) + 1).toLong,
        "p_amount" -> math.rint(rng.nextDouble() * 50000) / 100.0)
    }.toVector
  }

  /** Dataset-2 style rows: one row per user with a payment list. */
  def usersWithPayments(nUsers: Int, perUser: Int, nMerchants: Int = 10,
      seed: Long = 2): Vector[Map[String, Any]] = {
    val rng = new Random(seed)
    var pid = 0L
    (1 to nUsers).map { u =>
      val list = (1 to perUser).map { _ =>
        pid += 1
        Map[String, Any](
          "p_id" -> pid,
          "p_merchant" -> (rng.nextInt(nMerchants) + 1).toLong,
          "p_amount" -> math.rint(rng.nextDouble() * 50000) / 100.0)
      }.toVector
      Map[String, Any]("p_user" -> u.toLong, "p_list" -> list)
    }.toVector
  }

  def simpleRows(n: Int): Vector[Map[String, Any]] =
    (0 until n).map(i => Map[String, Any]("k" -> i.toLong, "v" -> i.toDouble)).toVector

  /** `rows` as a source iterator that blocks on `gate` after the first
    * `before` rows, so the dataflow goes idle until the test opens it.
    */
  def gated(rows: Vector[Map[String, Any]], before: Int, gate: CountDownLatch): Iterator[Map[String, Any]] =
    rows.iterator.take(before) ++ { gate.await(); rows.iterator.drop(before) }

  /** Wait until the `CollectLogic` sink `op` holds at least `n` tuples. */
  def awaitCollected(engine: Engine, op: String, n: Int): Unit = {
    val deadline = System.nanoTime() + 10_000_000_000L
    while (engine.collected(op).size < n) {
      require(System.nanoTime() < deadline, s"$op never collected $n tuples")
      Thread.sleep(1)
    }
  }
}
