"""Why k-SA cannot emulate shared memory: a litmus test over broadcasts.

Section 1.3 of the paper rests on the fact that k-set agreement (k > 1)
cannot emulate read/write registers in message passing.  This example
makes that gap tangible with the classic *store-buffer* litmus test:

    p_i:  write(R_i, 1); read(R_j)        (i ≠ j)

Registers emulated over a broadcast: a write broadcasts ``WRITE(R, v)``
and a read returns the last locally-delivered value of the register.
With **atomic** registers, whenever p_i's write completes before p_j's
read starts, that read must see the write.

* Over **Total-Order Broadcast** (consensus power, k = 1): in every
  seeded run, reads see every write completed before them — the
  emulation is sound.

* Over any broadcast **implemented from k-SA objects**: Algorithm 1
  produces an execution in which the processes run one after the other,
  each delivering only its own messages — so every process's read misses
  all *earlier, completed* writes.  The emulated register is not atomic,
  and no implementation tweak can fix it (Lemma 10 applies to all of
  them): that is the register gap behind Theorem 1.

* Under a **majority of correct processes** (t < n/2) — an assumption the
  paper's wait-free model deliberately does not make — registers become
  implementable *without any agreement object at all*: the ABD quorum
  emulation passes the same litmus and the linearizability checker, and
  the moment the majority is gone it simply blocks.  The register
  boundary is the majority assumption, not agreement power — k-SA adds
  nothing here.

Run: ``python examples/register_emulation_gap.py``
"""

from repro.adversary import adversarial_scheduler
from repro.broadcasts import TotalOrderBroadcast, TrivialKsaBroadcast
from repro.registers import AbdRegisterProcess, check_linearizable
from repro.runtime import CrashSchedule, Simulator
from repro.runtime.service import Invocation


def read_after_phase(execution, reader: int, writer: int) -> int:
    """The value of ``R_writer`` as the reader's delivery state shows it.

    Returns 1 iff the reader has delivered the writer's WRITE message by
    the end of its own steps.
    """
    delivered = execution.deliveries_of(reader)
    return int(any(m.sender == writer for m in delivered))


def main() -> None:
    n = 3

    print("Store-buffer litmus over Total-Order Broadcast (k = 1):")
    for seed in range(3):
        simulator = Simulator(
            n, lambda pid, size: TotalOrderBroadcast(pid, size),
            k=1, seed=seed,
        )
        result = simulator.run(
            {p: [("WRITE", f"R{p}", 1)] for p in range(n)}
        )
        # all writes complete (quiescent run): every read sees every write
        reads = {
            (i, j): read_after_phase(result.execution, i, j)
            for i in range(n)
            for j in range(n)
            if i != j
        }
        assert all(reads.values())
        print(f"  seed={seed}: all cross-reads see the writes ✓ {reads}")

    print(
        "\nSame litmus under Algorithm 1, registers over a broadcast "
        "built from 2-SA objects:"
    )
    result = adversarial_scheduler(
        2, 1, lambda pid, n_: TrivialKsaBroadcast(pid, n_)
    )
    execution = result.execution
    # the schedule is sequential: p1's phase completes before p2 starts,
    # p2's before p3 — so later readers MUST see earlier writes... but:
    violations = []
    for reader in range(1, 3):
        for writer in range(reader):
            seen = read_after_phase(result.beta, reader, writer)
            status = "sees" if seen else "MISSES (atomicity violated)"
            print(
                f"  p{reader + 1} read of R{writer + 1} — the write "
                f"completed earlier in the schedule — {status}"
            )
            if not seen:
                violations.append((reader, writer))
    assert violations, "the adversarial run must break the emulation"
    print(
        f"\n{len(violations)} stale reads: the emulated registers are not "
        f"atomic, matching §1.3 — k-SA (k > 1) cannot emulate shared "
        f"memory, which is why k-BO Broadcast's shared-memory equivalence "
        f"with k-SA does not transfer to message passing."
    )

    print(
        "\nThe same litmus over ABD quorum registers (no agreement "
        "objects, t < n/2):"
    )
    simulator = Simulator(
        5, lambda pid, size: AbdRegisterProcess(pid, size), seed=7
    )
    run = simulator.run(
        {
            p: [Invocation("write", f"R{p}", 1),
                Invocation("read", f"R{(p + 1) % 3}")]
            for p in range(3)
        },
        crash_schedule=CrashSchedule({4: 20}),  # a minority may crash
    )
    report = check_linearizable(run.history)
    print(f"  {len(run.history.complete())} operations, {report}")
    assert report.ok

    run = Simulator(
        5, lambda pid, size: AbdRegisterProcess(pid, size), seed=7
    ).run(
        {0: [Invocation("write", "R", 1)]},
        crash_schedule=CrashSchedule.initial([2, 3, 4]),
    )
    print(
        f"  ...and with a majority crashed it blocks, as it must: "
        f"{dict(run.blocked)}"
    )


if __name__ == "__main__":
    main()
