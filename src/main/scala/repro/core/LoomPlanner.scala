package repro.core

/** LOOM baseline [Culhane et al., HotCloud'14 / INFOCOM'15] as described in
  * §1 and §5.1.1 of the GRASP paper.
  *
  * LOOM builds an all-to-one aggregation tree whose fan-in is a function of
  * the reduction rate `|R_root| / |R_leaf|`. It is network-aware — the tree
  * is built hierarchically: each machine's fragments aggregate into a local
  * head over the fast intra-machine path, and the heads form an f-ary tree
  * to the destination — but similarity-oblivious: data reduction is modeled
  * with a uniform-universe assumption instead of per-pair similarity. As in
  * the paper's evaluation, LOOM is given the *accurate* final result
  * cardinality so it achieves its best performance.
  */
final class LoomPlanner(
    topo: Topology,
    dest: Int,
    leafCard: Double,
    rootCard: Double,
    tupleBytes: Double,
) {
  require(leafCard > 0 && rootCard > 0, "cardinalities must be positive")
  private val n = topo.nFragments
  require(n >= 2, "LOOM needs at least two fragments")

  /** Expected distinct keys held by a subtree of `nodes` fragments, under
    * LOOM's similarity-oblivious uniform-universe model: every fragment
    * holds `leafCard` keys drawn independently from a universe of
    * `rootCard` keys.
    */
  private def coverage(nodes: Long): Double = {
    val p0 = math.min(1.0, leafCard / rootCard)
    rootCard * (1.0 - math.pow(1.0 - p0, nodes.toDouble))
  }

  /** Parent fragment of every fragment in the locality-hierarchical f-ary
    * tree (-1 for the destination root): within each machine the fragments
    * form an f-ary subtree under a local head; the heads form an f-ary tree
    * rooted at the destination.
    */
  private[core] def buildParents(fanIn: Int): Array[Int] = {
    require(fanIn >= 1, s"fan-in must be >= 1, got $fanIn")
    val parent = Array.fill(n)(-1)
    val byMachine = (0 until n).groupBy(topo.machineOf)
    val destMachine = topo.machineOf(dest)
    // Local head per machine; the destination heads its own machine.
    val heads = byMachine.map { case (m, frags) =>
      m -> (if (m == destMachine) dest else frags.min)
    }
    // f-ary tree over the heads, destination's head first.
    val headOrder = heads(destMachine) +:
      heads.toSeq.filter(_._1 != destMachine).sortBy(_._1).map(_._2).toVector
    for (i <- 1 until headOrder.size)
      parent(headOrder(i)) = headOrder((i - 1) / fanIn)
    // f-ary subtree of each machine's remaining fragments under its head.
    byMachine.foreach { case (m, frags) =>
      val head = heads(m)
      val nodes = head +: frags.filter(_ != head).sorted.toVector
      for (i <- 1 until nodes.size)
        parent(nodes(i)) = nodes((i - 1) / fanIn)
    }
    parent
  }

  private def depthsOf(parent: Array[Int]): Array[Int] =
    Array.tabulate(n)(i => Iterator.iterate(i)(parent(_)).takeWhile(_ != dest).size)
      .zipWithIndex.map { case (d, i) => if (i == dest) 0 else d }

  /** Modeled completion time of the tree: levels execute in sequence
    * (deepest first), each level is charged on the real links its transfers
    * use (machine NIC up/down shared per Eq. 9, fast intra-machine path for
    * co-located parent/child). Sizes follow the uniform-universe model —
    * LOOM's network awareness without GRASP's distribution awareness.
    */
  def modeledCost(fanIn: Int): Double = {
    val parent = buildParents(fanIn)
    val subtree = Array.fill(n)(1L)
    val depth = depthsOf(parent)
    for (i <- (0 until n).sortBy(depth).reverse if i != dest) subtree(parent(i)) += subtree(i)
    (1 to depth.max).iterator.map { d =>
      topo.phaseNetworkSeconds((0 until n).filter(i => i != dest && depth(i) == d)
        .map(i => (i, parent(i), coverage(subtree(i)) * tupleBytes)))
    }.sum
  }

  /** The fan-in minimizing the modeled cost — "a fan-in that is a function
    * of the reduction rate |R_root| / |R_leaf|". Direct send (fan-in n-1)
    * is always a candidate: with no data reduction a tree cannot beat it.
    */
  def chooseFanIn(): Int = {
    val candidates = ((2 to math.min(n - 1, LoomPlanner.MaxFanIn)) :+ (n - 1)).distinct
    if (candidates.isEmpty) 1 else candidates.minBy(modeledCost)
  }

  /** Serialize the tree into depth-ordered phases: the deepest level sends
    * first, every node whose subtree `holds` data sends exactly once, and
    * every node has already received all its children when it sends.
    */
  def plan(fanIn: Int = chooseFanIn(), holds: Int => Boolean = _ => true): AggPlan = {
    val parent = buildParents(fanIn)
    val depth = depthsOf(parent)
    val maxDepth = depth.max
    val live = Array.tabulate(n)(holds)
    for (i <- (0 until n).sortBy(depth).reverse if i != dest && live(i)) live(parent(i)) = true
    val phases =
      for (d <- (maxDepth to 1 by -1).toVector) yield Phase(
        (0 until n).filter(i => i != dest && depth(i) == d && live(i)).map { i =>
          Transfer(i, parent(i), 0)
        }.toVector
      )
    AggPlan(phases.filter(_.transfers.nonEmpty))
  }
}

object LoomPlanner {
  /** Largest fan-in tried below direct send. */
  private val MaxFanIn = 64

  /** LOOM plan with the accurate result cardinality (the paper's best-case
    * configuration) and the mean fragment cardinality as `|R_leaf|`.
    */
  def plan(
      stats: PlannerState,
      topo: Topology,
      dest: Int,
      rootCard: Long,
      tupleBytes: Double,
  ): AggPlan = {
    require(stats.numPartitions == 1, "LOOM only works for all-to-one aggregations")
    val cards = (0 until stats.nFragments).map(v => stats.cardinality(v, 0).toDouble)
    val leaf = math.max(1.0, cards.sum / cards.count(_ > 0).max(1))
    new LoomPlanner(topo, dest, leaf, rootCard.toDouble.max(1.0), tupleBytes)
      .plan(holds = stats.hasData(_, 0))
  }
}
