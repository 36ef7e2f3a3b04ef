package qbsbench

import repro.graph.LocalGraph
import scala.util.Random

/** Query pairs drawn uniformly from all ordered vertex pairs, stratified by hop
  * distance.
  *
  * Query cost grows with the number of BFS levels, and so with distance. A plain
  * uniform sample of a few dozen pairs lets the distance mix, and with it the
  * median latency, swing from seed to seed. Here the k-th pair's distance class
  * follows a golden-ratio sequence through the graph's exact distance histogram,
  * so every prefix of the stream has the population's distance mix; within a
  * class the pair is uniform over all pairs at that distance. Endpoints range over
  * all vertices, landmarks included.
  */
final class PairSampler(local: LocalGraph) {
  private val vs = local.vertices
  private val n = vs.length
  private val index = vs.zipWithIndex.toMap
  private val adj: Array[Array[Int]] = vs.map(v => local.neighbors(v).map(index))

  /** `dist(i)(j)`: hop distance between `vs(i)` and `vs(j)`, -1 if unreachable. */
  val dist: Array[Array[Int]] = Array.tabulate(n) { s =>
    val d = Array.fill(n)(-1)
    val queue = new Array[Int](n)
    d(s) = 0; queue(0) = s
    var head = 0; var tail = 1
    while (head < tail) {
      val x = queue(head); head += 1
      for (y <- adj(x) if d(y) < 0) { d(y) = d(x) + 1; queue(tail) = y; tail += 1 }
    }
    d
  }

  private val classes: Array[Int] = dist.iterator.flatMap(_.iterator).toSet.toArray.sorted
  /** `rowCum(c)(i)`: pairs `(vs(k), ·)` in class `c` over rows `k <= i`. */
  private val rowCum: Array[Array[Long]] = classes.map { d =>
    dist.map(_.count(_ == d).toLong).scanLeft(0L)(_ + _).drop(1)
  }
  /** Share of ordered pairs in each class. */
  val shares: Array[Double] = {
    val totals = rowCum.map(_.last.toDouble)
    totals.map(_ / totals.sum)
  }
  private val classCum: Array[Double] = shares.scanLeft(0.0)(_ + _).drop(1)

  /** Distance histogram as `distance:share` (-1: unreachable). */
  def histogram: String = classes.zip(shares).map { case (d, s) => f"$d:$s%.3f" }.mkString(" ")

  /** Smallest `i` with `a(i) >= key`, for ascending `a`. */
  private def lowerBound(a: Array[Long], key: Long): Int = {
    var lo = 0; var hi = a.length
    while (lo < hi) { val mid = (lo + hi) >>> 1; if (a(mid) < key) lo = mid + 1 else hi = mid }
    lo
  }

  def distance(u: Long, v: Long): Option[Int] = Some(dist(index(u))(index(v))).filter(_ >= 0)

  /** An endless, seeded stream of pairs. */
  def pairs(seed: Long): Iterator[(Long, Long)] = {
    val rnd = new Random(seed)
    val offset = rnd.nextDouble()
    val phi = (math.sqrt(5) - 1) / 2
    Iterator.from(0).map { k =>
      val x = (offset + k * phi) % 1.0
      val c = classCum.indexWhere(x < _) match { case -1 => classes.length - 1; case i => i }
      val cum = rowCum(c)
      val i = lowerBound(cum, (rnd.nextDouble() * cum.last).toLong + 1)
      val row = dist(i)
      val m = rnd.nextInt((cum(i) - (if (i == 0) 0L else cum(i - 1))).toInt)
      val j = row.indices.iterator.filter(row(_) == classes(c)).drop(m).next()
      (vs(i), vs(j))
    }
  }
}
