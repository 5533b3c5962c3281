package repro.workflows

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.data.{Rows, TpcDsLite}
import repro.dataflow._
import repro.workflows.Logics._

/** Workflow W2 of the paper (Section 8.1): the pipelined probe side of
  * TPC-DS query 40 — a chain of four PK/FK (one-to-one) hash joins over
  * catalog_sales:
  *
  *   SRC → J1(item, price filter) → J2(warehouse) → J3(date_dim, window)
  *       → J4(catalog_returns, left) → SINK
  *
  * Build sides are pre-collected lookup tables (the paper considers only
  * the pipelined probe phase; the red edges of Figure 12). Every edge
  * re-partitions on a different key so no operators are chained.
  */
object W2 {

  final case class Params(
      p: Int = 1,
      joinCostNanos: Long = 0L,
      priceLo: Double = 0.99,
      priceHi: Double = 1.49,
      dateLoSk: Long = 1000L,
      dateWindowDays: Long = 60L,
      srcRate: Double = 0.0,
      loop: Boolean = false,
      srcCap: Int = 0,
      midCap: Int = 0)

  val joins: Vector[String] = Vector("J1", "J2", "J3", "J4")
  val outputCols: Seq[String] =
    Seq("cs_order_number", "cs_item_sk", "i_item_id", "w_state", "d_date",
      "cs_sales_price", "cr_refunded_cash")

  /** Pre-collected build sides + probe rows. */
  final case class Inputs(
      probe: Vector[Map[String, Any]],
      item: Map[Any, Map[String, Any]],
      warehouse: Map[Any, Map[String, Any]],
      dateDim: Map[Any, Map[String, Any]],
      returns: Map[(Any, Any), Map[String, Any]])

  def inputs(spark: SparkSession, sf: Double): Inputs = Inputs(
    probe = Rows.toMaps(TpcDsLite.catalogSales(spark, sf)),
    item = keyed(Rows.toMaps(TpcDsLite.item(spark, sf)), "i_item_sk"),
    warehouse = keyed(Rows.toMaps(TpcDsLite.warehouse(spark)), "w_warehouse_sk"),
    dateDim = keyed(Rows.toMaps(TpcDsLite.dateDim(spark)), "d_date_sk"),
    returns = Rows.toMaps(TpcDsLite.catalogReturns(spark, sf))
      .map(r => (r("cr_order_number"), r("cr_item_sk")) -> r).toMap)

  private[workflows] def keyed(rows: Seq[Map[String, Any]], key: String): Map[Any, Map[String, Any]] =
    rows.map(r => r(key) -> r).toMap

  def dataflow(in: Inputs, prm: Params): Dataflow = {
    val c = prm.joinCostNanos
    def dl(v: Any): Long = v.toString.toLong
    Dataflow(
      sources = Vector(SourceSpec("SRC", () => in.probe.iterator, prm.srcRate, 1, prm.loop)),
      ops = Vector(
        Operator("J1", prm.p, _ => new LookupJoin(in.item, "cs_item_sk",
          m => { val pr = m("i_current_price").toString.toDouble
                 pr >= prm.priceLo && pr <= prm.priceHi }, None, c)),
        Operator("J2", prm.p, _ => new LookupJoin(in.warehouse, "cs_warehouse_sk",
          _ => true, None, c)),
        Operator("J3", prm.p, _ => new LookupJoin(in.dateDim, "cs_sold_date_sk",
          m => { val sk = dl(m("d_date_sk"))
                 sk >= prm.dateLoSk && sk <= prm.dateLoSk + prm.dateWindowDays }, None, c)),
        Operator("J4", prm.p, _ => new LookupJoin2(in.returns, "cs_order_number", "cs_item_sk",
          Some(Map("cr_return_quantity" -> 0, "cr_refunded_cash" -> 0.0)), c)),
        Operator("SINK", prm.p, _ => new CollectLogic),
      ),
      edges = Vector(
        EdgeSpec("SRC", "J1", Partition.Hash("cs_order_number"), prm.srcCap),
        EdgeSpec("J1", "J2", Partition.Hash("cs_item_sk"), prm.midCap),
        EdgeSpec("J2", "J3", Partition.Hash("cs_order_number"), prm.midCap),
        EdgeSpec("J3", "J4", Partition.Hash("cs_item_sk"), prm.midCap),
        EdgeSpec("J4", "SINK", Partition.Hash("cs_order_number"), prm.midCap),
      ))
  }

  /** The same computation in the DataFrame API, for equivalence checks. */
  def sparkReference(spark: SparkSession, sf: Double, prm: Params): DataFrame = {
    val cs = TpcDsLite.catalogSales(spark, sf)
    val it = TpcDsLite.item(spark, sf)
      .where(col("i_current_price").between(prm.priceLo, prm.priceHi))
    val wh = TpcDsLite.warehouse(spark)
    val dd = TpcDsLite.dateDim(spark)
      .where(col("d_date_sk").between(prm.dateLoSk, prm.dateLoSk + prm.dateWindowDays))
    val cr = TpcDsLite.catalogReturns(spark, sf)
    cs.join(it, col("cs_item_sk") === col("i_item_sk"))
      .join(wh, col("cs_warehouse_sk") === col("w_warehouse_sk"))
      .join(dd, col("cs_sold_date_sk") === col("d_date_sk"))
      .join(cr, col("cs_order_number") === col("cr_order_number") &&
        col("cs_item_sk") === col("cr_item_sk"), "left")
      .select(
        col("cs_order_number"), col("cs_item_sk"), col("i_item_id"), col("w_state"),
        col("d_date").cast("string") as "d_date", col("cs_sales_price"),
        coalesce(col("cr_refunded_cash"), lit(0.0)) as "cr_refunded_cash")
  }

  /** DuckDB oracle SQL over VARCHAR-typed mirrors of the input tables. */
  def duckSql(prm: Params): String =
    s"""SELECT cs_order_number, cs_item_sk, i_item_id, w_state, d_date,
       |       CAST(cs_sales_price AS DOUBLE) AS cs_sales_price,
       |       COALESCE(CAST(cr_refunded_cash AS DOUBLE), 0.0) AS cr_refunded_cash
       |FROM catalog_sales
       |JOIN item ON cs_item_sk = i_item_sk
       | AND CAST(i_current_price AS DOUBLE) BETWEEN ${prm.priceLo} AND ${prm.priceHi}
       |JOIN warehouse ON cs_warehouse_sk = w_warehouse_sk
       |JOIN date_dim ON cs_sold_date_sk = d_date_sk
       | AND CAST(d_date_sk AS BIGINT) BETWEEN ${prm.dateLoSk} AND ${prm.dateLoSk + prm.dateWindowDays}
       |LEFT JOIN catalog_returns
       |  ON cs_order_number = cr_order_number AND cs_item_sk = cr_item_sk
       |""".stripMargin
}

/** Workflow W3 (Section 8.1): the probe side of TPC-DS query 71 — each of
  * the three sales channels joins item (manager filter), the branches are
  * unioned, then joined with time_dim (meal-time filter) and date_dim:
  *
  *   SRC_WS → J5(item) ┐
  *   SRC_CS → J6(item) ┼ U1 ┐
  *   SRC_SS → J7(item) ──── U2 → J8(time_dim) → J9(date_dim) → SINK
  *
  * The union is a two-input operator, so the three-way union is staged as
  * U1(J5, J6) then U2(U1, J7) — the paper's single U1 vertex corresponds to
  * our {U1, U2} pair, which adds one vertex to some MCS listings (noted in
  * EXPERIMENTS.md).
  */
object W3 {

  final case class Params(
      p: Int = 1,
      joinCostNanos: Long = 0L,
      mgrMax: Int = 100,
      year: Int = 1997,
      srcRate: Double = 0.0,
      loop: Boolean = false,
      srcCap: Int = 0,
      midCap: Int = 0)

  val joins: Vector[String] = Vector("J5", "J6", "J7", "J8", "J9")
  val outputCols: Seq[String] =
    Seq("channel", "item_sk", "i_brand", "time_sk", "date_sk", "price", "t_hour",
      "t_meal_time", "d_moy")

  final case class Inputs(
      ws: Vector[Map[String, Any]],
      cs: Vector[Map[String, Any]],
      ss: Vector[Map[String, Any]],
      item: Map[Any, Map[String, Any]],
      timeDim: Map[Any, Map[String, Any]],
      dateDim: Map[Any, Map[String, Any]])

  def inputs(spark: SparkSession, sf: Double): Inputs = Inputs(
    ws = Rows.toMaps(TpcDsLite.webSales(spark, sf)),
    cs = Rows.toMaps(TpcDsLite.catalogSales(spark, sf)),
    ss = Rows.toMaps(TpcDsLite.storeSales(spark, sf)),
    item = W2.keyed(Rows.toMaps(TpcDsLite.item(spark, sf)), "i_item_sk"),
    timeDim = W2.keyed(Rows.toMaps(TpcDsLite.timeDim(spark)), "t_time_sk"),
    dateDim = W2.keyed(Rows.toMaps(TpcDsLite.dateDim(spark)), "d_date_sk"))

  /** item-join logic for one channel, normalizing to the union schema. */
  private def channelJoin(in: Inputs, prm: Params, prefix: String, name: String) = {
    val c = prm.joinCostNanos
    new OpLogic {
      private val inner = new LookupJoin(in.item, s"${prefix}_item_sk",
        m => m("i_manager_id").toString.toInt <= prm.mgrMax, None, 0L)
      override val costNanos: Long = c
      override def process(t: DTuple): Seq[(Map[String, Any], Int)] =
        inner.process(t).map { case (m, port) =>
          (Map(
            "channel" -> name,
            "item_sk" -> m(s"${prefix}_item_sk"),
            "i_brand" -> m("i_brand"),
            "time_sk" -> m(s"${prefix}_sold_time_sk"),
            "date_sk" -> m(s"${prefix}_sold_date_sk"),
            "price" -> m(s"${prefix}_sales_price")), port)
        }
    }
  }

  def dataflow(in: Inputs, prm: Params): Dataflow = {
    val c = prm.joinCostNanos
    Dataflow(
      sources = Vector(
        SourceSpec("SRC_WS", () => in.ws.iterator, prm.srcRate, 1, prm.loop),
        SourceSpec("SRC_CS", () => in.cs.iterator, prm.srcRate, 1, prm.loop),
        SourceSpec("SRC_SS", () => in.ss.iterator, prm.srcRate, 1, prm.loop)),
      ops = Vector(
        Operator("J5", prm.p, _ => channelJoin(in, prm, "ws", "web")),
        Operator("J6", prm.p, _ => channelJoin(in, prm, "cs", "catalog")),
        Operator("J7", prm.p, _ => channelJoin(in, prm, "ss", "store")),
        Operator("U1", prm.p, _ => new Pass),
        Operator("U2", prm.p, _ => new Pass),
        Operator("J8", prm.p, _ => new LookupJoin(in.timeDim, "time_sk",
          m => { val mt = m("t_meal_time"); mt == "breakfast" || mt == "dinner" }, None, c)),
        Operator("J9", prm.p, _ => new LookupJoin(in.dateDim, "date_sk",
          m => prm.year < 0 || m("d_year").toString.toInt == prm.year, None, c)),
        Operator("SINK", prm.p, _ => new CollectLogic),
      ),
      edges = Vector(
        EdgeSpec("SRC_WS", "J5", Partition.Hash("ws_item_sk"), prm.srcCap),
        EdgeSpec("SRC_CS", "J6", Partition.Hash("cs_item_sk"), prm.srcCap),
        EdgeSpec("SRC_SS", "J7", Partition.Hash("ss_item_sk"), prm.srcCap),
        EdgeSpec("J5", "U1", Partition.Hash("item_sk"), prm.midCap),
        EdgeSpec("J6", "U1", Partition.Hash("item_sk"), prm.midCap),
        EdgeSpec("U1", "U2", Partition.Hash("item_sk"), prm.midCap),
        EdgeSpec("J7", "U2", Partition.Hash("item_sk"), prm.midCap),
        EdgeSpec("U2", "J8", Partition.Hash("time_sk"), prm.midCap),
        EdgeSpec("J8", "J9", Partition.Hash("date_sk"), prm.midCap),
        EdgeSpec("J9", "SINK", Partition.Hash("item_sk"), prm.midCap),
      ))
  }

  def sparkReference(spark: SparkSession, sf: Double, prm: Params): DataFrame = {
    val it = TpcDsLite.item(spark, sf).where(col("i_manager_id") <= prm.mgrMax)
    def chan(df: DataFrame, prefix: String, name: String): DataFrame =
      df.join(it, col(s"${prefix}_item_sk") === col("i_item_sk"))
        .select(lit(name) as "channel", col(s"${prefix}_item_sk") as "item_sk",
          col("i_brand"), col(s"${prefix}_sold_time_sk") as "time_sk",
          col(s"${prefix}_sold_date_sk") as "date_sk",
          col(s"${prefix}_sales_price") as "price")
    val unioned = chan(TpcDsLite.webSales(spark, sf), "ws", "web")
      .unionAll(chan(TpcDsLite.catalogSales(spark, sf), "cs", "catalog"))
      .unionAll(chan(TpcDsLite.storeSales(spark, sf), "ss", "store"))
    unioned
      .join(TpcDsLite.timeDim(spark).where(col("t_meal_time").isin("breakfast", "dinner")),
        col("time_sk") === col("t_time_sk"))
      .join(TpcDsLite.dateDim(spark).where(col("d_year") === prm.year),
        col("date_sk") === col("d_date_sk"))
      .select(outputCols.map(col): _*)
  }

  def duckSql(prm: Params): String =
    s"""WITH unioned AS (
       |  SELECT 'web' AS channel, ws_item_sk AS item_sk, i_brand,
       |         ws_sold_time_sk AS time_sk, ws_sold_date_sk AS date_sk,
       |         ws_sales_price AS price
       |  FROM web_sales JOIN item ON ws_item_sk = i_item_sk
       |   AND CAST(i_manager_id AS INT) <= ${prm.mgrMax}
       |  UNION ALL
       |  SELECT 'catalog', cs_item_sk, i_brand, cs_sold_time_sk, cs_sold_date_sk,
       |         cs_sales_price
       |  FROM catalog_sales JOIN item ON cs_item_sk = i_item_sk
       |   AND CAST(i_manager_id AS INT) <= ${prm.mgrMax}
       |  UNION ALL
       |  SELECT 'store', ss_item_sk, i_brand, ss_sold_time_sk, ss_sold_date_sk,
       |         ss_sales_price
       |  FROM store_sales JOIN item ON ss_item_sk = i_item_sk
       |   AND CAST(i_manager_id AS INT) <= ${prm.mgrMax}
       |)
       |SELECT channel, item_sk, i_brand, time_sk, date_sk,
       |       CAST(price AS DOUBLE) AS price, t_hour, t_meal_time, d_moy
       |FROM unioned
       |JOIN time_dim ON time_sk = t_time_sk AND t_meal_time IN ('breakfast', 'dinner')
       |JOIN date_dim ON date_sk = d_date_sk AND CAST(d_year AS INT) = ${prm.year}
       |""".stripMargin
}
