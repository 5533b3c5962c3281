package repro.dataflow

import java.lang.management.ManagementFactory
import java.util.concurrent.CountDownLatch
import java.util.concurrent.atomic.AtomicBoolean
import java.util.concurrent.locks.LockSupport
import scala.jdk.CollectionConverters._
import org.scalatest.funsuite.AnyFunSuite
import repro.testutil.TestData
import repro.workflows.Logics._

class EngineBasicsSpec extends AnyFunSuite {

  private def runToCompletion(df: Dataflow, capacity: Int = 256): Engine = {
    val engine = new Engine(df, defaultCapacity = capacity)
    engine.start()
    engine.awaitCompletion(60_000)
    engine
  }

  /** The live threads of the workers named `names` (`op#idx`); the tests
    * below use operator names no other suite uses.
    */
  private def threadsNamed(names: Set[String]): Vector[Thread] =
    Thread.getAllStackTraces.keySet.asScala.filter(t => names(t.getName) && t.isAlive).toVector

  private def simpleChain(rows: Vector[Map[String, Any]], p: Int = 1,
      partition: Partition = Partition.RoundRobin): Dataflow =
    Dataflow(
      sources = Vector(SourceSpec("SRC", () => rows.iterator)),
      ops = Vector(
        Operator("A", p, _ => new Pass),
        Operator("SINK", 1, _ => new CollectLogic)),
      edges = Vector(
        EdgeSpec("SRC", "A", partition),
        EdgeSpec("A", "SINK", Partition.RoundRobin)))

  test("pass-through chain delivers every tuple exactly once") {
    val rows = TestData.simpleRows(500)
    val engine = runToCompletion(simpleChain(rows))
    val out = engine.collected("SINK")
    assert(out.size == 500)
    assert(out.map(_.long("k")).sorted == (0L until 500L))
  }

  test("tuple values are preserved") {
    val rows = TestData.simpleRows(10)
    val engine = runToCompletion(simpleChain(rows))
    assert(engine.collected("SINK").map(_.values).toSet == rows.toSet)
  }

  test("transaction ids are unique per source tuple and inherited") {
    val rows = TestData.simpleRows(100)
    val engine = runToCompletion(simpleChain(rows))
    val txns = engine.collected("SINK").map(_.txnId)
    assert(txns.distinct.size == 100)
  }

  test("multi-worker operator still delivers everything once") {
    val rows = TestData.simpleRows(1000)
    val engine = runToCompletion(simpleChain(rows, p = 4, Partition.Hash("k")))
    assert(engine.collected("SINK").size == 1000)
  }

  test("hash partitioning sends a key always to the same worker") {
    val rows = TestData.simpleRows(400).map(r => r + ("k" -> (r("k").asInstanceOf[Long] % 7)))
    val df = Dataflow(
      sources = Vector(SourceSpec("SRC", () => rows.iterator)),
      ops = Vector(
        Operator("A", 3, i => new MapFilter(m => Some(m + ("worker" -> i)))),
        Operator("SINK", 1, _ => new CollectLogic)),
      edges = Vector(
        EdgeSpec("SRC", "A", Partition.Hash("k")),
        EdgeSpec("A", "SINK", Partition.RoundRobin)))
    val out = runToCompletion(df).collected("SINK")
    val byKey = out.groupBy(_.long("k")).view.mapValues(_.map(_.values("worker")).toSet)
    byKey.foreach { case (k, workers) => assert(workers.size == 1, s"key $k on $workers") }
  }

  test("broadcast partitioning delivers each tuple to every downstream worker") {
    val rows = TestData.simpleRows(50)
    val df = Dataflow(
      sources = Vector(SourceSpec("SRC", () => rows.iterator)),
      ops = Vector(
        Operator("A", 3, _ => new Pass),
        Operator("SINK", 1, _ => new CollectLogic)),
      edges = Vector(
        EdgeSpec("SRC", "A", Partition.Broadcast),
        EdgeSpec("A", "SINK", Partition.RoundRobin)))
    assert(runToCompletion(df).collected("SINK").size == 150)
  }

  test("forward partitioning requires equal parallelism") {
    val df = Dataflow(
      sources = Vector(SourceSpec("SRC", () => Iterator.empty)),
      ops = Vector(
        Operator("A", 2, _ => new Pass),
        Operator("SINK", 1, _ => new CollectLogic)),
      edges = Vector(
        EdgeSpec("SRC", "A", Partition.Forward),
        EdgeSpec("A", "SINK", Partition.RoundRobin)))
    assertThrows[IllegalArgumentException](new Engine(df))
  }

  test("forward partitioning pins worker i to worker i") {
    val rows = TestData.simpleRows(100)
    val df = Dataflow(
      sources = Vector(SourceSpec("SRC", () => rows.iterator)),
      ops = Vector(
        Operator("A", 2, i => new MapFilter(m => Some(m + ("wa" -> i)))),
        Operator("B", 2, i => new MapFilter(m => Some(m + ("wb" -> i)))),
        Operator("SINK", 1, _ => new CollectLogic)),
      edges = Vector(
        EdgeSpec("SRC", "A", Partition.RoundRobin),
        EdgeSpec("A", "B", Partition.Forward),
        EdgeSpec("B", "SINK", Partition.RoundRobin)))
    val out = runToCompletion(df).collected("SINK")
    out.foreach(t => assert(t.values("wa") == t.values("wb")))
  }

  test("round-robin roughly balances") {
    val rows = TestData.simpleRows(300)
    val df = Dataflow(
      sources = Vector(SourceSpec("SRC", () => rows.iterator)),
      ops = Vector(
        Operator("A", 3, i => new MapFilter(m => Some(m + ("worker" -> i)))),
        Operator("SINK", 1, _ => new CollectLogic)),
      edges = Vector(
        EdgeSpec("SRC", "A", Partition.RoundRobin),
        EdgeSpec("A", "SINK", Partition.RoundRobin)))
    val counts = runToCompletion(df).collected("SINK").groupBy(_.values("worker")).map(_._2.size)
    assert(counts.size == 3)
    counts.foreach(c => assert(c == 100))
  }

  test("a one-to-many unnest multiplies tuples and keeps the txn id") {
    val rows = TestData.usersWithPayments(nUsers = 10, perUser = 5)
    val df = Dataflow(
      sources = Vector(SourceSpec("SRC", () => rows.iterator)),
      ops = Vector(
        Operator("UN", 1, _ => new Unnest("p_list")),
        Operator("SINK", 1, _ => new CollectLogic)),
      edges = Vector(
        EdgeSpec("SRC", "UN", Partition.RoundRobin),
        EdgeSpec("UN", "SINK", Partition.RoundRobin)))
    val out = runToCompletion(df).collected("SINK")
    assert(out.size == 50)
    assert(out.groupBy(_.txnId).values.forall(_.size == 5))
  }

  test("replicate emits one copy per port") {
    val rows = TestData.simpleRows(20)
    val df = Dataflow(
      sources = Vector(SourceSpec("SRC", () => rows.iterator)),
      ops = Vector(
        Operator("RE", 1, _ => new Replicate(2)),
        Operator("L", 1, _ => new MapFilter(m => Some(m + ("side" -> "l")))),
        Operator("R", 1, _ => new MapFilter(m => Some(m + ("side" -> "r")))),
        Operator("SINK", 1, _ => new CollectLogic)),
      edges = Vector(
        EdgeSpec("SRC", "RE", Partition.RoundRobin),
        EdgeSpec("RE", "L", Partition.RoundRobin),
        EdgeSpec("RE", "R", Partition.RoundRobin),
        EdgeSpec("L", "SINK", Partition.RoundRobin),
        EdgeSpec("R", "SINK", Partition.RoundRobin)))
    val out = runToCompletion(df).collected("SINK")
    assert(out.size == 40)
    assert(out.count(_.values("side") == "l") == 20)
  }

  test("self-join fuses replicated twins back to one tuple per txn") {
    val rows = TestData.simpleRows(50)
    val df = Dataflow(
      sources = Vector(SourceSpec("SRC", () => rows.iterator)),
      ops = Vector(
        Operator("RE", 1, _ => new Replicate(2)),
        Operator("L", 1, _ => new MapFilter(m => Some(m + ("l" -> 1)))),
        Operator("R", 1, _ => new MapFilter(m => Some(m + ("r" -> 1)))),
        Operator("SJ", 2, _ => new SelfJoin("k")),
        Operator("SINK", 1, _ => new CollectLogic)),
      edges = Vector(
        EdgeSpec("SRC", "RE", Partition.RoundRobin),
        EdgeSpec("RE", "L", Partition.RoundRobin),
        EdgeSpec("RE", "R", Partition.RoundRobin),
        EdgeSpec("L", "SJ", Partition.Hash("k")),
        EdgeSpec("R", "SJ", Partition.Hash("k")),
        EdgeSpec("SJ", "SINK", Partition.RoundRobin)))
    val out = runToCompletion(df).collected("SINK")
    assert(out.size == 50)
    out.foreach { t =>
      assert(t.values("l") == 1 && t.values("r") == 1, s"missing twin in ${t.values}")
    }
  }

  test("blocking aggregation emits at end of stream") {
    val rows = TestData.simpleRows(100).map(r => r + ("k" -> (r("k").asInstanceOf[Long] % 4)))
    val df = Dataflow(
      sources = Vector(SourceSpec("SRC", () => rows.iterator)),
      ops = Vector(
        Operator("AGG", 1, _ => new CountByKey("k"), blocking = true),
        Operator("SINK", 1, _ => new CollectLogic)),
      edges = Vector(
        EdgeSpec("SRC", "AGG", Partition.RoundRobin),
        EdgeSpec("AGG", "SINK", Partition.RoundRobin)))
    val out = runToCompletion(df).collected("SINK")
    assert(out.size == 4)
    assert(out.map(t => t.long("k") -> t.values("count")).toMap ==
      Map(0L -> 25L, 1L -> 25L, 2L -> 25L, 3L -> 25L))
  }

  test("rate-limited source paces emission") {
    val rows = TestData.simpleRows(100)
    val df = simpleChain(rows).copy(sources =
      Vector(SourceSpec("SRC", () => rows.iterator, ratePerSec = 500)))
    val t0 = System.nanoTime()
    runToCompletion(df)
    val elapsedMs = (System.nanoTime() - t0) / 1e6
    assert(elapsedMs >= 150, s"100 tuples at 500/s finished in ${elapsedMs}ms")
  }

  test("looping source stops on request and the engine drains") {
    val rows = TestData.simpleRows(50)
    val df = simpleChain(rows).copy(sources =
      Vector(SourceSpec("SRC", () => rows.iterator, loop = true)))
    val engine = new Engine(df, defaultCapacity = 64)
    engine.start()
    Thread.sleep(100)
    engine.stopSources()
    engine.awaitCompletion(30_000)
    assert(engine.collected("SINK").size >= 50)
  }

  test("shutdownNow terminates a running engine") {
    val rows = TestData.simpleRows(50)
    val df = simpleChain(rows).copy(sources =
      Vector(SourceSpec("SRC", () => rows.iterator, loop = true)))
    val engine = new Engine(df, defaultCapacity = 16)
    engine.start()
    Thread.sleep(50)
    engine.shutdownNow() // must not hang
  }

  test("simulated cost lasts its full duration even when the worker is unparked") {
    // parkNanos may return early (spurious wake-up, leftover permit); the
    // helper thread forces that every ~20 µs. 50 tuples at 1 ms each must
    // still take at least 50 ms.
    val rows = TestData.simpleRows(50)
    val df = Dataflow(
      sources = Vector(SourceSpec("COST_SRC", () => rows.iterator)),
      ops = Vector(
        Operator("COST_A", 1, _ => new Pass(costNanos = 1_000_000L)),
        Operator("COST_SINK", 1, _ => new CollectLogic)),
      edges = Vector(EdgeSpec("COST_SRC", "COST_A"), EdgeSpec("COST_A", "COST_SINK")))
    val engine = new Engine(df)
    val t0 = System.nanoTime()
    engine.start()
    val Vector(worker) = threadsNamed(Set("COST_A#0"))
    val stop = new AtomicBoolean(false)
    val unparker = new Thread(() =>
      while (!stop.get()) { LockSupport.unpark(worker); LockSupport.parkNanos(20_000) })
    unparker.setDaemon(true)
    unparker.start()
    try engine.awaitCompletion(30_000)
    finally { stop.set(true); unparker.join() }
    val elapsedMs = (System.nanoTime() - t0) / 1e6
    assert(engine.collected("COST_SINK").size == 50)
    assert(elapsedMs >= 50, s"50 tuples at 1 ms each finished in ${elapsedMs}ms")
  }

  test("idle workers sleep without using CPU, and stopSources wakes them with end-of-stream") {
    // One row per second: after the first row every worker is idle, while
    // the source, sleeping between rows, still reads its control queue.
    val rows = TestData.simpleRows(10)
    val df = Dataflow(
      sources = Vector(SourceSpec("IDLE_SRC", () => rows.iterator, ratePerSec = 1, loop = true)),
      ops = Vector(
        Operator("IDLE_A", 1, _ => new Pass),
        Operator("IDLE_B", 2, _ => new Pass),
        Operator("IDLE_SINK", 1, _ => new CollectLogic)),
      edges = Vector(
        EdgeSpec("IDLE_SRC", "IDLE_A"),
        EdgeSpec("IDLE_A", "IDLE_B", Partition.Broadcast),
        EdgeSpec("IDLE_B", "IDLE_SINK")))
    val engine = new Engine(df)
    engine.start()
    try {
      TestData.awaitCollected(engine, "IDLE_SINK", 2)
      val mx = ManagementFactory.getThreadMXBean
      val workers = threadsNamed(engine.workers.keySet.map(_.toString))
      assert(workers.size == 4)
      val before = workers.map(t => mx.getThreadCpuTime(t.getId))
      Thread.sleep(300)
      workers.zip(before).foreach { case (t, cpu0) =>
        val usedMs = (mx.getThreadCpuTime(t.getId) - cpu0) / 1e6
        assert(usedMs < 20, s"idle ${t.getName} used ${usedMs}ms of CPU in 300ms")
      }
      engine.stopSources()
      engine.awaitCompletion(1_000)
      val emitted = engine.sourceRuntimes(WorkerId("IDLE_SRC", 0)).emitted
      assert(engine.collected("IDLE_SINK").size == 2 * emitted)
    } finally engine.shutdownNow()
  }

  test("shutdownNow on an idle pipeline leaves no live engine threads") {
    val gate = new CountDownLatch(1)
    val rows = TestData.simpleRows(10)
    val df = Dataflow(
      sources = Vector(SourceSpec("DOWN_SRC", () => TestData.gated(rows, 3, gate))),
      ops = Vector(
        Operator("DOWN_A", 2, _ => new Pass),
        Operator("DOWN_SINK", 1, _ => new CollectLogic)),
      edges = Vector(
        EdgeSpec("DOWN_SRC", "DOWN_A", Partition.Hash("k")),
        EdgeSpec("DOWN_A", "DOWN_SINK")))
    val engine = new Engine(df)
    engine.start()
    TestData.awaitCollected(engine, "DOWN_SINK", 3)
    val threads = threadsNamed(Set("DOWN_SRC#0", "DOWN_A#0", "DOWN_A#1", "DOWN_SINK#0"))
    assert(threads.size == 4)
    engine.shutdownNow()
    threads.foreach(t => assert(!t.isAlive, s"${t.getName} still alive after shutdownNow"))
  }

  test("schedule log records one data entry per processed tuple") {
    val rows = TestData.simpleRows(30)
    val engine = runToCompletion(simpleChain(rows))
    val dataEntries = engine.log.dataRecords
    // 30 at A + 30 at SINK
    assert(dataEntries.size == 60)
    assert(dataEntries.forall(_.version == 0))
  }

  test("source with more than one out-edge is rejected") {
    val df = Dataflow(
      sources = Vector(SourceSpec("SRC", () => Iterator.empty)),
      ops = Vector(
        Operator("A", 1, _ => new Pass),
        Operator("B", 1, _ => new Pass),
        Operator("SINK", 1, _ => new CollectLogic)),
      edges = Vector(
        EdgeSpec("SRC", "A"), EdgeSpec("SRC", "B"),
        EdgeSpec("A", "SINK"), EdgeSpec("B", "SINK")))
    assertThrows[IllegalArgumentException](new Engine(df))
  }

  test("DTuple typed accessors") {
    val t = DTuple(1, 0, Map("l" -> 5L, "i" -> 3, "s" -> "7", "d" -> 2.5))
    assert(t.long("l") == 5L && t.long("i") == 3L && t.long("s") == 7L)
    assert(t.double("d") == 2.5 && t.double("l") == 5.0)
    assert(t.str("s") == "7")
  }

  test("channel accounting matches the physical topology") {
    val df = Dataflow(
      sources = Vector(SourceSpec("SRC", () => Iterator.empty)),
      ops = Vector(
        Operator("A", 3, _ => new Pass),
        Operator("B", 2, _ => new Pass),
        Operator("SINK", 1, _ => new CollectLogic)),
      edges = Vector(
        EdgeSpec("SRC", "A", Partition.Hash("k")),
        EdgeSpec("A", "B", Partition.Hash("k")),
        EdgeSpec("B", "SINK", Partition.Hash("k"))))
    val engine = new Engine(df)
    assert(engine.channelPairs.size == 3 + 6 + 2)
    assert(engine.channelsBetween(Set("A", "B")) == 6)
  }
}
