package repro.data

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

/** Sanity of the synthetic generators (determinism, referential integrity,
  * value ranges) plus DuckDB-oracle smoke tests over them.
  */
class GeneratorsSpec extends SparkSpec {

  private val sf = 0.005

  test("payments generator is deterministic in (sf, seed)") {
    val a = Payments.payments(spark, sf).collect().toSeq
    val b = Payments.payments(spark, sf).collect().toSeq
    assert(a == b)
  }

  test("payments p_id is dense and ordered") {
    val ids = Payments.payments(spark, sf).select("p_id").collect().map(_.getLong(0))
    assert(ids.toSeq == (0L until ids.length))
  }

  test("payments foreign domains are bounded") {
    val row = Payments.payments(spark, sf)
      .agg(max("p_user"), max("p_merchant"), min("p_amount")).collect().head
    assert(row.getLong(0) <= Payments.users(sf))
    assert(row.getLong(1) <= Payments.merchants(sf))
    assert(row.getDouble(2) >= 0)
  }

  test("paymentsByUser covers every payment exactly once") {
    val total = Payments.payments(spark, sf).count()
    val grouped = Payments.paymentsByUser(spark, sf)
      .select(explode(col("p_list"))).count()
    assert(grouped == total)
  }

  test("nUsers override narrows the user domain") {
    val users = Payments.payments(spark, sf, nUsers = 7)
      .select(countDistinct("p_user")).collect().head.getLong(0)
    assert(users <= 7)
  }

  test("tpcds item prices cover the W2 filter range") {
    val it = TpcDsLite.item(spark, 0.01)
    val n = it.where(col("i_current_price").between(0.99, 1.49)).count()
    assert(n > 0 && n < it.count())
  }

  test("tpcds sales reference existing items and warehouses") {
    val cs = TpcDsLite.catalogSales(spark, sf)
    val maxItem = cs.agg(max("cs_item_sk")).collect().head.getLong(0)
    assert(maxItem <= TpcDsLite.items(sf))
    val maxWh = cs.agg(max("cs_warehouse_sk")).collect().head.getLong(0)
    assert(maxWh <= TpcDsLite.NWarehouses)
  }

  test("tpcds date_dim covers 1992-1998 with correct month/year columns") {
    val dd = TpcDsLite.dateDim(spark)
    assert(dd.count() == TpcDsLite.NDates)
    val years = dd.select(countDistinct("d_year")).collect().head.getLong(0)
    assert(years == 7)
  }

  test("tpcds time_dim meal-time classification") {
    val td = TpcDsLite.timeDim(spark)
    val byMeal = td.groupBy("t_meal_time").count().collect()
      .map(r => Option(r.get(0)).map(_.toString).getOrElse("null") -> r.getLong(1)).toMap
    assert(byMeal("breakfast") == 180) // 3 hours x 60 minutes
    assert(byMeal("dinner") == 180)
  }

  test("catalog returns are a subset of catalog sales order/item pairs") {
    val cs = TpcDsLite.catalogSales(spark, sf).select("cs_order_number", "cs_item_sk")
    val cr = TpcDsLite.catalogReturns(spark, sf)
      .select(col("cr_order_number") as "cs_order_number", col("cr_item_sk") as "cs_item_sk")
    assert(cr.count() > 0)
    assert(cr.except(cs).count() == 0)
  }

  test("oracle smoke: per-state payment counts match DuckDB") {
    val p = Payments.payments(spark, sf)
    val agg = p.groupBy("p_state").agg(count(lit(1)) as "cnt")
    Oracle.assertEquivalent(agg,
      "SELECT p_state, count(*) AS cnt FROM payments GROUP BY p_state",
      "payments" -> p)
  }

  test("Rows.toMaps converts dates, decimals, and nested structs") {
    val maps = Rows.toMaps(Payments.paymentsByUser(spark, 0.002))
    assert(maps.nonEmpty)
    val list = maps.head("p_list").asInstanceOf[Vector[Map[String, Any]]]
    assert(list.nonEmpty)
    assert(list.head.keySet == Set("p_id", "p_merchant", "p_amount"))
  }

  test("Rows.canonical sorts rows and formats doubles stably") {
    val rows = Seq(Map[String, Any]("a" -> 2.0, "b" -> "y"), Map[String, Any]("a" -> 1.0, "b" -> "x"))
    val canon = Rows.canonical(rows, Seq("a", "b"))
    assert(canon == Seq(Seq("1.000000", "x"), Seq("2.000000", "y")))
  }
}
