//! Table 2: the simulated machine configuration.
use tm_sim::MachineConfig;

/// Table 2 as a run report.
pub fn run() -> crate::RunReport {
    let m = MachineConfig::xeon_e5405();
    let rows = vec![
        vec![
            "Processor model".into(),
            "simulated Intel Xeon E5405 @ 2.00 GHz".into(),
        ],
        vec![
            "Total cores".into(),
            format!(
                "{} ({} sockets, {} per socket)",
                m.cores,
                m.sockets(),
                m.cores_per_socket
            ),
        ],
        vec![
            "L1 data cache".into(),
            format!(
                "{} KB, {}-way, 64-byte lines (per core)",
                m.l1.size / 1024,
                m.l1.ways
            ),
        ],
        vec![
            "L2 cache".into(),
            format!(
                "{}x{} MB, {}-way, shared per socket",
                m.sockets(),
                m.l2.size / (1024 * 1024),
                m.l2.ways
            ),
        ],
        vec![
            "Latencies (cycles)".into(),
            format!(
                "L1 {} / L2 {} / mem {} / transfer {}-{} / RMW +{}",
                m.cost.l1_hit,
                m.cost.l2_hit,
                m.cost.mem,
                m.cost.transfer_same_socket,
                m.cost.transfer_cross_socket,
                m.cost.atomic_rmw
            ),
        ],
    ];
    crate::RunReport::new("table2", "table")
        .section("data", crate::table_section(&["Item", "Value"], &rows))
}
