package repro.workflows

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.core.OpMeta
import repro.data.Payments
import repro.dataflow._
import repro.workflows.Logics._

/** Workflow W1 (Section 8.1): SRC(payments) → FD(user-based inference)
  * → SINK. The FD operator keeps the most recent `window` payment amounts
  * per user and scores each payment (windowed average as the deterministic
  * LSTM stand-in; `fdCostNanos` models inference cost — Section 8.6 scales
  * delay by growing this cost via the window size).
  */
object W1 {
  final case class Params(
      p: Int = 1,
      window: Int = 10,
      fdCostNanos: Long = 0L,
      srcRate: Double = 0.0,
      loop: Boolean = false,
      srcCap: Int = 0,
      midCap: Int = 0)

  def dataflow(rows: Vector[Map[String, Any]], prm: Params): Dataflow =
    Dataflow(
      sources = Vector(SourceSpec("SRC", () => rows.iterator, prm.srcRate, 1, prm.loop)),
      ops = Vector(
        Operator("FD", prm.p, _ =>
          new FraudScore("p_user", "p_amount", "score_u", prm.window, 0, prm.fdCostNanos)),
        Operator("SINK", 1, _ => new CollectLogic)),
      edges = Vector(
        EdgeSpec("SRC", "FD", Partition.Hash("p_user"), prm.srcCap),
        EdgeSpec("FD", "SINK", Partition.Hash("p_user"), prm.midCap)))

  /** A cheaper FD model (use case 2: hot-replace the LSTM with a decision
    * tree): same semantics, lower cost, carrying the state over.
    */
  def cheaperModel(prm: Params, newCostNanos: Long, modelTag: Int): FunctionUpdate =
    FunctionUpdate.replace(s =>
      new FraudScore("p_user", "p_amount", "score_u", prm.window, modelTag, newCostNanos,
        Option(s).map(_.asInstanceOf[Map[Any, Vector[Double]]]).getOrElse(Map.empty)))

  /** Spark reference for the FD score: windowed average per user in p_id
    * order (the engine's arrival order at parallelism 1).
    */
  def sparkReference(spark: SparkSession, sf: Double, prm: Params): DataFrame = {
    val w = Window.partitionBy("p_user").orderBy("p_id")
      .rowsBetween(-(prm.window - 1), Window.currentRow)
    Payments.payments(spark, sf)
      .select(col("p_id"), col("p_user"), col("p_amount"), avg("p_amount").over(w) as "score_u")
  }

  def duckSql(prm: Params): String =
    s"""SELECT p_id, p_user, CAST(p_amount AS DOUBLE) AS p_amount,
       |       AVG(CAST(p_amount AS DOUBLE)) OVER (
       |         PARTITION BY p_user ORDER BY CAST(p_id AS BIGINT)
       |         ROWS BETWEEN ${prm.window - 1} PRECEDING AND CURRENT ROW) AS score_u
       |FROM payments
       |""".stripMargin
}

/** The Figure 1 / Figure 2 running example: SRC → FC → FM → MC → SINK.
  * The reconfiguration of Section 2.2 updates FM (emit an extra
  * probability p_m(10)) and MC (combine three probabilities with new
  * weights); an uncoordinated schedule lets a tuple scored by the old FM
  * reach the new MC, which misses the `score_m10` column — the paper's
  * schema-mismatch anomaly (schedule S3).
  */
object FigOne {

  /** FM: per-merchant window; emits score_m = avg(last 5). Version 1 also
    * emits score_m10 = avg(last 10). The underlying state always keeps 10
    * so the Section 2.2 state transformation (pad 5 with nulls → here:
    * reuse the kept suffix) is the identity carry-over.
    */
  final class FmLogic(val modelVersion: Int,
      initial: Map[Any, Vector[Double]] = Map.empty,
      override val costNanos: Long = 0L) extends OpLogic {
    private val recent = scala.collection.mutable.Map.empty[Any, Vector[Double]]
    recent ++= initial
    override def process(t: DTuple): Seq[(Map[String, Any], Int)] = {
      val k = t.values("p_merchant")
      val q = (recent.getOrElse(k, Vector.empty) :+ t.double("p_amount")).takeRight(10)
      recent(k) = q
      val last5 = q.takeRight(5)
      val base = t.values + ("score_m" -> last5.sum / last5.size)
      val out = if (modelVersion >= 1) base + ("score_m10" -> q.sum / q.size) else base
      Seq((out, 0))
    }
    override def state: Any = recent.toMap
  }

  /** MC: combines probabilities. Old: [0.4, 0.6] over (score_c, score_m).
    * New: [0.4, 0.4, 0.2] over (score_c, score_m10, score_m) — if the
    * input predates the FM update the score_m10 column is missing and the
    * output is flagged as an error (the observable inconsistency).
    */
  final class McLogic(val modelVersion: Int, override val costNanos: Long = 0L) extends OpLogic {
    override def process(t: DTuple): Seq[(Map[String, Any], Int)] = {
      val out =
        if (modelVersion == 0)
          t.values + ("combined" -> (0.4 * t.double("score_c") + 0.6 * t.double("score_m"))) +
            ("mc_error" -> false)
        else t.values.get("score_m10") match {
          case Some(_) =>
            t.values + ("combined" -> (0.4 * t.double("score_c") +
              0.4 * t.double("score_m10") + 0.2 * t.double("score_m"))) + ("mc_error" -> false)
          case None => t.values + ("combined" -> -1.0) + ("mc_error" -> true)
        }
      Seq((out, 0))
    }
  }

  final case class Params(
      fcCostNanos: Long = 0L,
      fmCostNanos: Long = 0L,
      srcRate: Double = 0.0,
      loop: Boolean = false,
      cap: Int = 0)

  def dataflow(rows: Vector[Map[String, Any]], prm: Params): Dataflow =
    Dataflow(
      sources = Vector(SourceSpec("SRC", () => rows.iterator, prm.srcRate, 1, prm.loop)),
      ops = Vector(
        Operator("FC", 1, _ => new FraudScore("p_user", "p_amount", "score_c", 5, 0, prm.fcCostNanos)),
        Operator("FM", 1, _ => new FmLogic(0, Map.empty, prm.fmCostNanos)),
        Operator("MC", 1, _ => new McLogic(0)),
        Operator("SINK", 1, _ => new CollectLogic)),
      edges = Vector(
        EdgeSpec("SRC", "FC", Partition.RoundRobin, prm.cap),
        EdgeSpec("FC", "FM", Partition.RoundRobin, prm.cap),
        EdgeSpec("FM", "MC", Partition.RoundRobin, prm.cap),
        EdgeSpec("MC", "SINK", Partition.RoundRobin, prm.cap)))

  /** The Section 2.2 reconfiguration {FM, MC}. */
  def reconfiguration(prm: Params): Reconfiguration = Reconfiguration.of(
    "FM" -> FunctionUpdate.replace(s =>
      new FmLogic(1, Option(s).map(_.asInstanceOf[Map[Any, Vector[Double]]]).getOrElse(Map.empty),
        prm.fmCostNanos)),
    "MC" -> FunctionUpdate.replace(_ => new McLogic(1)))
}

/** The Figure 6 example: X routes each tuple to exactly one of C and D, so
  * a reconfiguration {C, D} has two single-operator MCS components and
  * even the naive FCM scheduler stays conflict-serializable.
  */
object Fig6 {
  def dataflow(rows: Vector[Map[String, Any]], cap: Int = 0, loop: Boolean = false,
      rate: Double = 0.0): Dataflow =
    Dataflow(
      sources = Vector(SourceSpec("SRC", () => rows.iterator, rate, 1, loop)),
      ops = Vector(
        Operator("X", 1, _ => new Router(m => (m("p_user").toString.toLong % 2).toInt)),
        Operator("C", 1, _ => new Pass),
        Operator("D", 1, _ => new Pass),
        Operator("U", 1, _ => new Pass),
        Operator("SINK", 1, _ => new CollectLogic)),
      edges = Vector(
        EdgeSpec("SRC", "X", Partition.RoundRobin, cap),
        EdgeSpec("X", "C", Partition.RoundRobin, cap),
        EdgeSpec("X", "D", Partition.RoundRobin, cap),
        EdgeSpec("C", "U", Partition.RoundRobin, cap),
        EdgeSpec("D", "U", Partition.RoundRobin, cap),
        EdgeSpec("U", "SINK", Partition.RoundRobin, cap)))
}

/** Workflow W4 (Sections 8.1, 8.8): dataset 2 (payments grouped per user)
  * with a one-to-many unnest:
  *
  *   SRC → F1(filter) → U2(unnest, to both) → FD1(user) ┐
  *                                          → FD2(merchant) ┴ F2(self-join) → SINK
  *
  * U2 splits each user's payment list and sends every payment to both
  * inference operators; F2 fuses the twin scores per payment.
  */
object W4 {
  final case class Params(
      p: Int = 1,
      window: Int = 10,
      fdCostNanos: Long = 0L,
      minPayments: Int = 1,
      srcRate: Double = 0.0,
      loop: Boolean = false,
      srcCap: Int = 0,
      preCap: Int = 0, // F1 -> U2 (user rows; shallow keeps {F1,U2} fast)
      unnestCap: Int = 0,
      midCap: Int = 0)

  def dataflow(userRows: Vector[Map[String, Any]], prm: Params): Dataflow =
    Dataflow(
      sources = Vector(SourceSpec("SRC", () => userRows.iterator, prm.srcRate, 1, prm.loop)),
      ops = Vector(
        Operator("F1", prm.p, _ => new MapFilter(m =>
          if (m("p_list").asInstanceOf[Seq[_]].sizeIs >= prm.minPayments) Some(m) else None)),
        Operator("U2", prm.p, _ => new UnnestToAll("p_list", 2),
          meta = OpMeta(oneToMany = true)),
        Operator("FD1", prm.p, _ =>
          new FraudScore("p_user", "p_amount", "score_u", prm.window, 0, prm.fdCostNanos)),
        Operator("FD2", prm.p, _ =>
          new FraudScore("p_merchant", "p_amount", "score_m", prm.window, 0, prm.fdCostNanos)),
        Operator("F2", prm.p, _ => new SelfJoin("p_id")),
        Operator("SINK", 1, _ => new CollectLogic)),
      edges = Vector(
        EdgeSpec("SRC", "F1", Partition.Hash("p_user"), prm.srcCap),
        EdgeSpec("F1", "U2", Partition.Hash("p_user"), prm.preCap),
        EdgeSpec("U2", "FD1", Partition.Hash("p_user"), prm.unnestCap),
        EdgeSpec("U2", "FD2", Partition.Hash("p_merchant"), prm.unnestCap),
        EdgeSpec("FD1", "F2", Partition.Hash("p_id"), prm.midCap),
        EdgeSpec("FD2", "F2", Partition.Hash("p_id"), prm.midCap),
        EdgeSpec("F2", "SINK", Partition.Hash("p_id"), prm.midCap)))
}

/** Workflow W5 (Sections 8.1, 8.9): replicate + self-join, exercising both
  * MCS pruning rules:
  *
  *   SRC → RE ┬→ FD3(user) → S1 → F3 ┐
  *            └→ F4 → FD4(merchant) ─┴ SJ(self-join, unique) → E1 → SINK
  */
object W5 {
  final case class Params(
      p: Int = 1,
      window: Int = 10,
      fdCostNanos: Long = 0L,
      srcRate: Double = 0.0,
      loop: Boolean = false,
      srcCap: Int = 0,
      branchCap: Int = 0,
      midCap: Int = 0)

  def dataflow(rows: Vector[Map[String, Any]], prm: Params): Dataflow =
    Dataflow(
      sources = Vector(SourceSpec("SRC", () => rows.iterator, prm.srcRate, 1, prm.loop)),
      ops = Vector(
        Operator("RE", prm.p, _ => new Replicate(2),
          meta = OpMeta(oneToMany = true, edgeWiseOneToOne = true)),
        Operator("FD3", prm.p, _ =>
          new FraudScore("p_user", "p_amount", "score_u", prm.window, 0, prm.fdCostNanos)),
        Operator("S1", prm.p, _ => new Pass),
        Operator("F3", prm.p, _ => new Pass),
        Operator("F4", prm.p, _ => new Pass),
        Operator("FD4", prm.p, _ =>
          new FraudScore("p_merchant", "p_amount", "score_m", prm.window, 0, prm.fdCostNanos)),
        Operator("SJ", prm.p, _ => new SelfJoin("p_id"),
          meta = OpMeta(uniquePerTxn = true)),
        Operator("E1", prm.p, _ => new Pass),
        Operator("SINK", 1, _ => new CollectLogic)),
      edges = Vector(
        EdgeSpec("SRC", "RE", Partition.Hash("p_id"), prm.srcCap),
        EdgeSpec("RE", "FD3", Partition.Hash("p_user"), prm.branchCap),
        EdgeSpec("RE", "F4", Partition.Hash("p_merchant"), prm.branchCap),
        EdgeSpec("FD3", "S1", Partition.Hash("p_id"), prm.midCap),
        EdgeSpec("S1", "F3", Partition.Hash("p_id"), prm.midCap),
        EdgeSpec("F4", "FD4", Partition.Hash("p_merchant"), prm.branchCap),
        EdgeSpec("F3", "SJ", Partition.Hash("p_id"), prm.midCap),
        EdgeSpec("FD4", "SJ", Partition.Hash("p_id"), prm.midCap),
        EdgeSpec("SJ", "E1", Partition.Hash("p_id"), prm.midCap),
        EdgeSpec("E1", "SINK", Partition.Hash("p_id"), prm.midCap)))

  val outputCols: Seq[String] = Seq("p_id", "p_user", "p_merchant", "p_amount",
    "score_u", "score_m")

  /** Spark reference: twin windowed averages per user and per merchant,
    * fused per payment — valid at parallelism 1 (deterministic order).
    */
  def sparkReference(spark: SparkSession, sf: Double, prm: Params): DataFrame = {
    val byUser = Window.partitionBy("p_user").orderBy("p_id")
      .rowsBetween(-(prm.window - 1), Window.currentRow)
    val byMerchant = Window.partitionBy("p_merchant").orderBy("p_id")
      .rowsBetween(-(prm.window - 1), Window.currentRow)
    Payments.payments(spark, sf).select(
      col("p_id"), col("p_user"), col("p_merchant"), col("p_amount"),
      avg("p_amount").over(byUser) as "score_u",
      avg("p_amount").over(byMerchant) as "score_m")
  }

  def duckSql(prm: Params): String =
    s"""SELECT p_id, p_user, p_merchant, CAST(p_amount AS DOUBLE) AS p_amount,
       |  AVG(CAST(p_amount AS DOUBLE)) OVER (
       |    PARTITION BY p_user ORDER BY CAST(p_id AS BIGINT)
       |    ROWS BETWEEN ${prm.window - 1} PRECEDING AND CURRENT ROW) AS score_u,
       |  AVG(CAST(p_amount AS DOUBLE)) OVER (
       |    PARTITION BY p_merchant ORDER BY CAST(p_id AS BIGINT)
       |    ROWS BETWEEN ${prm.window - 1} PRECEDING AND CURRENT ROW) AS score_m
       |FROM payments
       |""".stripMargin
}
