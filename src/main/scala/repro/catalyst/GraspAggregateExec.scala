package repro.catalyst

import java.util.concurrent.TimeUnit.NANOSECONDS

import scala.collection.mutable

import org.apache.spark.{NarrowDependency, Partition, SparkContext, TaskContext}
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.{Attribute, GenericInternalRow, UnsafeProjection}
import org.apache.spark.sql.execution.{SparkPlan, UnaryExecNode}
import org.apache.spark.sql.execution.metric.{SQLMetric, SQLMetrics}
import org.apache.spark.sql.types._
import org.apache.spark.storage.StorageLevel

import repro.core.{AggPlan, GraspPlanner, KeyPartitioner, Mapping, MinHasher, PlannerState}
import repro.exec.{AggFunc, AggSpec}

/** Mutable aggregation-state algebra over a flat `Array[Double]` — the
  * per-key hash-table payload the operator carries between merge phases.
  * NaN input values are treated as SQL NULLs (skipped by everything except
  * COUNT(*)).
  */
final class AggStateOps(specs: Seq[AggSpec]) extends Serializable {
  import AggFunc._

  private val slots: Array[Int] = specs.map {
    case AggSpec(Avg, _, _) => 2
    case _                  => 1
  }.toArray
  private val offsets: Array[Int] = slots.scanLeft(0)(_ + _).init
  val totalSlots: Int = slots.sum
  private val funcs: Array[AggFunc] = specs.map(_.func).toArray

  def newState(): Array[Double] = {
    val st = new Array[Double](totalSlots)
    var i = 0
    while (i < funcs.length) {
      funcs(i) match {
        case Min => st(offsets(i)) = Double.PositiveInfinity
        case Max => st(offsets(i)) = Double.NegativeInfinity
        case _   => ()
      }
      i += 1
    }
    st
  }

  /** Fold one input row's values (one per spec, NaN = NULL) into `st`. */
  def update(st: Array[Double], values: Array[Double]): Unit = {
    var i = 0
    while (i < funcs.length) {
      val o = offsets(i)
      val v = values(i)
      funcs(i) match {
        case Count             => st(o) += 1
        case _ if v.isNaN      => ()
        case Sum               => st(o) += v
        case Min               => if (v < st(o)) st(o) = v
        case Max               => if (v > st(o)) st(o) = v
        case Avg               => st(o) += v; st(o + 1) += 1
      }
      i += 1
    }
  }

  /** Merge state `b` into `a` (associative + commutative). */
  def merge(a: Array[Double], b: Array[Double]): Unit = {
    var i = 0
    while (i < funcs.length) {
      val o = offsets(i)
      funcs(i) match {
        case Sum | Count => a(o) += b(o)
        case Min         => if (b(o) < a(o)) a(o) = b(o)
        case Max         => if (b(o) > a(o)) a(o) = b(o)
        case Avg         => a(o) += b(o); a(o + 1) += b(o + 1)
      }
      i += 1
    }
  }

  /** Finalized value of spec `i` (Long for COUNT, Double otherwise). */
  def finalValue(st: Array[Double], i: Int): Any = funcs(i) match {
    case Count => st(offsets(i)).toLong
    case Avg   => if (st(offsets(i) + 1) == 0) null else st(offsets(i)) / st(offsets(i) + 1)
    case Min   => if (st(offsets(i)).isPosInfinity) null else st(offsets(i))
    case Max   => if (st(offsets(i)).isNegInfinity) null else st(offsets(i))
    case Sum   => st(offsets(i))
  }
}

/** Partition of a [[MergePhaseRDD]]: the fragment's own parent partition
  * plus the parent partitions scheduled to arrive this phase (captured on
  * the driver — parent `partitions` arrays are not available on executors).
  */
private final class MergePhasePartition(
    override val index: Int,
    val own: Partition,
    val incoming: Array[(Partition, Int)], // (src parent partition, data partition l)
) extends Partition

/** One GRASP phase as a narrow RDD transformation.
  *
  * Partition `p` of this RDD holds fragment `p`'s hash table after the
  * phase: its previous contents minus the shares it sent away, plus the
  * shares scheduled to arrive, merged key-by-key. The dependency set is
  * exactly the scheduled transfers, so the "network" of the paper becomes
  * the partition-to-partition edges of the DAG. `movedMetric` counts the
  * tuples that crossed fragments, `intoDestMetric` those that reached
  * their partition's destination (Table 2).
  */
final class MergePhaseRDD(
    prev: RDD[(Int, Long, Array[Double])],
    sends: Map[(Int, Int), Int], // (srcFragment, partition) -> dstFragment
    mapping: Mapping,
    ops: AggStateOps,
    movedMetric: SQLMetric,
    intoDestMetric: SQLMetric,
) extends RDD[(Int, Long, Array[Double])](
      prev.sparkContext,
      Seq(new NarrowDependency(prev) {
        override def getParents(pid: Int): Seq[Int] =
          (pid +: sends.toSeq.collect { case ((s, _), `pid`) => s }).distinct
      })) {

  override def getPartitions: Array[Partition] = {
    val parents = prev.partitions
    Array.tabulate(parents.length) { pid =>
      val incoming = sends.toArray.collect { case ((s, l), `pid`) => (parents(s), l) }
      new MergePhasePartition(pid, parents(pid), incoming)
    }
  }

  override def compute(split: Partition, ctx: TaskContext): Iterator[(Int, Long, Array[Double])] = {
    val part = split.asInstanceOf[MergePhasePartition]
    val pid = part.index
    val parent = firstParent[(Int, Long, Array[Double])]
    val table = new mutable.HashMap[(Int, Long), Array[Double]]
    // Own rows, minus the shares this fragment ships out this phase.
    parent.iterator(part.own, ctx).foreach { case (l, k, st) =>
      if (!sends.contains((pid, l))) table.put((l, k), st.clone())
    }
    // Arriving shares, merged into the local hash table (Eq. 1 / Eq. 6).
    part.incoming.foreach { case (srcPart, l) =>
      var tuples = 0L
      parent.iterator(srcPart, ctx).foreach { case (l2, k, st) =>
        if (l2 == l) {
          tuples += 1
          table.get((l, k)) match {
            case Some(acc) => ops.merge(acc, st)
            case None      => table.put((l, k), st.clone())
          }
        }
      }
      movedMetric.add(tuples)
      if (mapping(l) == pid) intoDestMetric.add(tuples)
    }
    table.iterator.map { case ((l, k), st) => (l, k, st) }
  }
}

/** The one executor of phased plans: `SELECT key, aggs GROUP BY key` over
  * an RDD whose partition `v` is plan fragment `v`.
  *
  * Execution:
  *   1. partial hash aggregation per fragment, keys split into partitions
  *      by `partitioner`;
  *   2. per-(fragment, partition) cardinality + minhash statistics,
  *      collected to the driver (step 2–3 of Fig. 5);
  *   3. `plan` over those statistics (steps 4–8), replayed on the driver to
  *      check that it leaves every share at its destination (Eq. 7);
  *   4. one [[MergePhaseRDD]] per phase (step 9), each materialized and
  *      cached so a share is computed exactly once;
  *   5. projection of the final hash tables to unsafe rows.
  *
  * SQL metrics expose the phase count, the tuples moved between fragments
  * and those received by their destination fragment (Table 2), and the
  * wall-clock of step 3's `plan` call.
  */
object PhasedAggregation {

  /** The paper's 100-hash minhash family, used for the statistics. */
  val Hasher: MinHasher = new MinHasher(MinHasher.PaperHashes, seed = 42)

  /** The SQL metrics [[execute]] updates, by name. */
  def metrics(sc: SparkContext): Map[String, SQLMetric] = Map(
    "numPhases"   -> SQLMetrics.createMetric(sc, "GRASP phases"),
    "tuplesMoved" -> SQLMetrics.createMetric(sc, "tuples moved between fragments"),
    "tuplesIntoDestinations" -> SQLMetrics.createMetric(sc, "tuples into their destination"),
    "numOutputRows" -> SQLMetrics.createMetric(sc, "number of output rows"),
    "planningTime" -> SQLMetrics.createTimingMetric(sc, "GRASP planning time"),
  )

  private def toDouble(row: InternalRow, ord: Int, dt: DataType): Double =
    if (ord < 0 || row.isNullAt(ord)) Double.NaN
    else dt match {
      case DoubleType  => row.getDouble(ord)
      case FloatType   => row.getFloat(ord).toDouble
      case LongType    => row.getLong(ord).toDouble
      case IntegerType => row.getInt(ord).toDouble
      case ShortType   => row.getShort(ord).toDouble
      case d: DecimalType => row.getDecimal(ord, d.precision, d.scale).toDouble
      case other => throw new IllegalArgumentException(s"unsupported aggregate input type $other")
    }

  /** Runs the phases before it returns; the projection runs when the
    * returned rows `(key, agg1, agg2 …)` are consumed.
    */
  def execute(
      rows: RDD[InternalRow],
      schema: StructType,
      keyName: String,
      specs: Seq[AggSpec],
      partitioner: KeyPartitioner,
      mapping: Mapping,
      plan: PlannerState => AggPlan,
      metrics: Map[String, SQLMetric],
  ): RDD[InternalRow] = {
    require(specs.nonEmpty, "need at least one aggregate")
    val keyOrd = schema.fieldIndex(keyName)
    val keyType = schema(keyOrd).dataType
    require(keyType == LongType || keyType == IntegerType,
      s"GROUP BY key must be integral, got $keyType")
    val inOrds = specs.map {
      case AggSpec(AggFunc.Count, _, _) => -1
      case s => schema.fieldIndex(s.input)
    }.toArray
    val inTypes = inOrds.map(o => if (o < 0) NullType else schema(o).dataType)
    require(mapping.numPartitions == partitioner.numPartitions, "mapping/partitioner mismatch")

    val ops = new AggStateOps(specs)
    val n = rows.getNumPartitions
    val m = partitioner.numPartitions
    val nSpecs = specs.size
    val keyIsLong = keyType == LongType

    // --- 1. local partial aggregation per fragment (Fig. 5 step 2).
    val local: RDD[(Int, Long, Array[Double])] = rows.mapPartitions { it =>
      val table = new mutable.HashMap[(Int, Long), Array[Double]]
      val values = new Array[Double](nSpecs)
      it.foreach { row =>
        if (!row.isNullAt(keyOrd)) {
          val key = if (keyIsLong) row.getLong(keyOrd) else row.getInt(keyOrd).toLong
          var i = 0
          while (i < nSpecs) { values(i) = toDouble(row, inOrds(i), inTypes(i)); i += 1 }
          val st = table.getOrElseUpdate(
            (partitioner.partitionOf(key), key), ops.newState())
          ops.update(st, values)
        }
      }
      table.iterator.map { case ((l, k), st) => (l, k, st) }
    }
    local.persist(StorageLevel.MEMORY_AND_DISK)

    // --- 2. statistics: cardinality + minhash per (fragment, partition),
    // collected in partition order.
    val hasher = Hasher
    val statRows = local.mapPartitions { it =>
      val card = new Array[Long](m)
      val sigs = Array.fill(m)(hasher.emptySignature)
      it.foreach { case (l, k, _) => card(l) += 1; hasher.add(sigs(l), k) }
      Iterator.single((card, sigs))
    }.collect()
    val card = statRows.map(_._1)
    val sigs = statRows.map(_._2)

    // --- 3. planning (steps 3-8 of Fig. 5), and the plan replayed on the
    // statistics to check that every share ends at its destination.
    val planStart = System.nanoTime()
    val aggPlan = plan(PlannerState.fromStats(card, sigs, hasher))
    metrics("planningTime").add(NANOSECONDS.toMillis(System.nanoTime() - planStart))
    metrics("numPhases").add(aggPlan.numPhases)
    val replay = PlannerState.fromStats(card, sigs, hasher)
    aggPlan.transfers.foreach(t => replay.update(t.src, t.dst, t.partition))
    for (l <- 0 until m; v <- 0 until n if v != mapping(l))
      require(!replay.hasData(v, l),
        s"plan incomplete: fragment $v still holds partition $l, whose destination is ${mapping(l)}")

    // --- 4. one narrow merge step per phase, each materialized once.
    var state = local
    aggPlan.phases.foreach { phase =>
      val sends = phase.transfers.map(t => (t.src, t.partition) -> t.dst).toMap
      val next = new MergePhaseRDD(state, sends, mapping, ops,
        metrics("tuplesMoved"), metrics("tuplesIntoDestinations"))
      next.persist(StorageLevel.MEMORY_AND_DISK)
      next.count()
      state.unpersist(blocking = false)
      state = next
    }

    // --- 5. project the destination hash tables to output rows.
    val outTypes = (keyType +: specs.map(GraspAggregate.resultType)).toArray
    val numOutput = metrics("numOutputRows")
    state.mapPartitions { it =>
      val proj = UnsafeProjection.create(outTypes)
      val row = new GenericInternalRow(1 + nSpecs)
      it.map { case (_, k, st) =>
        if (keyIsLong) row.update(0, k) else row.update(0, k.toInt)
        var i = 0
        while (i < nSpecs) { row.update(1 + i, ops.finalValue(st, i)); i += 1 }
        numOutput.add(1)
        proj.apply(row).copy()
      }
    }
  }
}

/** Physical operator executing `GROUP BY key` with GRASP-scheduled partition
  * merges (the reproduction target: "a custom Catalyst physical operator …
  * that reorders partition merges based on distribution similarity"). Each
  * child partition is a fragment; [[PhasedAggregation]] runs the query
  * all-to-all, keys hashed over the fragments, on a GRASP plan.
  */
final case class GraspAggregateExec(
    keyName: String,
    specs: Seq[AggSpec],
    outputAttrs: Seq[Attribute],
    child: SparkPlan,
) extends UnaryExecNode {

  override def output: Seq[Attribute] = outputAttrs

  // The aggregate result attributes are minted by this operator (only the
  // key flows through from the child).
  override def producedAttributes: org.apache.spark.sql.catalyst.expressions.AttributeSet =
    org.apache.spark.sql.catalyst.expressions.AttributeSet(
      outputAttrs.filterNot(a => child.output.exists(_.exprId == a.exprId)))

  override lazy val metrics: Map[String, SQLMetric] = PhasedAggregation.metrics(sparkContext)

  override protected def withNewChildInternal(newChild: SparkPlan): GraspAggregateExec =
    copy(child = newChild)

  override protected def doExecute(): RDD[InternalRow] = {
    val rows = child.execute()
    val n = rows.getNumPartitions
    if (n == 0) return sparkContext.emptyRDD[InternalRow]
    // The operator has no real network, so the bandwidth matrix is uniform.
    val grasp = (stats: PlannerState) =>
      new GraspPlanner(stats, Array.fill(n, n)(1.0), Mapping.allToAll(n), tupleBytes = 16.0).plan()
    PhasedAggregation.execute(rows, child.schema, keyName, specs,
      KeyPartitioner.Hashed(n), Mapping.allToAll(n), grasp, metrics)
  }
}
