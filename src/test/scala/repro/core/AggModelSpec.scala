package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Plan representation invariants (§2 of the paper). */
class AggModelSpec extends AnyFunSuite {
  import GraspPlannerSpec.PhaseInvariants

  test("self transfers are rejected at construction") {
    intercept[IllegalArgumentException](Transfer(1, 1, 0))
  }

  test("phase sender/receiver distinctness checks") {
    val ok = Phase(Vector(Transfer(0, 1, 0), Transfer(2, 3, 0)))
    assert(ok.sendersDistinct && ok.receiversDistinct)
    val dupSender = Phase(Vector(Transfer(0, 1, 0), Transfer(0, 2, 1)))
    assert(!dupSender.sendersDistinct && dupSender.receiversDistinct)
    val dupReceiver = Phase(Vector(Transfer(0, 1, 0), Transfer(2, 1, 1)))
    assert(dupReceiver.sendersDistinct && !dupReceiver.receiversDistinct)
  }

  test("plan counts phases and transfers") {
    val plan = AggPlan(Vector(
      Phase(Vector(Transfer(0, 1, 0), Transfer(2, 3, 0))),
      Phase(Vector(Transfer(1, 3, 0)))))
    assert(plan.numPhases == 2)
    assert(plan.numTransfers == 3)
    assert(plan.transfers.size == 3)
  }

  test("all-to-one mapping has one partition at the destination") {
    val m = Mapping.allToOne(4)
    assert(m.numPartitions == 1)
    assert(m(0) == 4)
  }

  test("all-to-all mapping balances partitions over fragments") {
    val m = Mapping.allToAll(5)
    assert(m.numPartitions == 5)
    assert((0 until 5).map(m(_)) == (0 until 5))
  }

  test("transfer rendering is compact") {
    assert(Transfer(2, 7, 3).toString == "2->7[l=3]")
  }
}
