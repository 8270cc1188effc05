//! Every Table 1 kernel round-trips through the textual kernel format and
//! still matches its scalar reference — proving the text front-end covers
//! the full surface the evaluation uses (all opcodes, loop variables,
//! regions, and folded addressing).

use csched_ir::text;
use csched_machine::Opcode;

#[test]
fn all_kernels_round_trip_through_text() {
    for w in csched_kernels::all() {
        let printed = text::print(&w.kernel);
        let reparsed =
            text::parse(&printed).unwrap_or_else(|e| panic!("{}: {e}\n{printed}", w.kernel.name()));
        assert_eq!(
            reparsed.num_ops(),
            w.kernel.num_ops(),
            "{}",
            w.kernel.name()
        );
        assert_eq!(reparsed.name(), w.kernel.name());

        // Execute the reparsed kernel against the original's reference.
        let mut mem = w.memory();
        csched_ir::interp::run(&reparsed, &mut mem, w.trip)
            .unwrap_or_else(|e| panic!("{}: {e}", w.kernel.name()));
        w.verify(&mem)
            .unwrap_or_else(|e| panic!("reparsed kernel diverged: {e}"));

        // Printing the reparse is a fixpoint.
        assert_eq!(text::print(&reparsed), printed, "{}", w.kernel.name());
    }
}

#[test]
fn table1_kernels_keep_their_op_counts() {
    // The kernels' op counts are part of the experiment (Table 1): loop
    // ops, loads and stores per kernel, in suite order.
    let pinned = [
        ("DCT", 76, 8, 8),
        ("FFT", 22, 6, 4),
        ("FFT-U4", 88, 24, 16),
        ("FIR-FP", 169, 56, 1),
        ("FIR-INT", 169, 56, 1),
        ("Block Warp", 36, 3, 3),
        ("Block Warp-U2", 72, 6, 6),
        ("Triangle Transform", 104, 9, 9),
        ("Sort", 56, 8, 8),
        ("Merge", 9, 2, 1),
    ];
    let counts: Vec<(&str, usize, usize, usize)> = csched_kernels::all()
        .iter()
        .zip(pinned.map(|(name, ..)| name))
        .map(|(w, name)| {
            assert_eq!(w.kernel.name(), name);
            let h = w.kernel.opcode_histogram();
            let count = |op| h.get(&op).copied().unwrap_or(0);
            (
                name,
                w.kernel.loop_ops().len(),
                count(Opcode::Load),
                count(Opcode::Store),
            )
        })
        .collect();
    assert_eq!(counts, pinned);
}

#[test]
fn unrolled_kernels_preserve_reference() {
    for name in ["FFT", "Block Warp"] {
        let w = csched_kernels::by_name(name).unwrap();
        let unrolled = csched_ir::unroll(&w.kernel, 2).unwrap();
        let mut mem = (w.inputs)(w.trip);
        csched_ir::interp::run(&unrolled, &mut mem, w.trip / 2).unwrap();
        // The unrolled kernel does the same work in half the iterations.
        for (addr, want) in (w.expected)(w.trip) {
            let got = mem.main.get(&addr).copied();
            assert!(
                got.is_some_and(|g| g.bit_eq(want)),
                "{name}: address {addr}: expected {want}, got {got:?}"
            );
        }
    }
}
