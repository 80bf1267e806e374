//! §6 ablation: Labyrinth with and without padding of the per-thread
//! router state (the paper's false-sharing diagnosis and fix).
use crate::scale;
use tm_alloc::AllocatorKind;
use tm_stamp::apps::Labyrinth;
use tm_stamp::runner::{run_app, StampOpts};

/// The padding ablation as a run report.
pub fn run() -> crate::RunReport {
    let mut rows = Vec::new();
    for kind in AllocatorKind::ALL {
        let mut times = Vec::new();
        for pad in [false, true] {
            let mut app = Labyrinth::new(12, 8 * scale(), 0xace);
            app.pad_router_state = pad;
            let r = run_app(&app, kind, 8, &StampOpts::default());
            times.push(r.par_seconds);
        }
        rows.push(vec![
            kind.name().into(),
            format!("{:.3}", times[0] * 1e3),
            format!("{:.3}", times[1] * 1e3),
            format!("{:+.2}%", (times[0] / times[1] - 1.0) * 100.0),
        ]);
    }
    let header = ["Allocator", "unpadded", "padded", "padding gain"];
    crate::RunReport::new("ablation_padding", "ablation")
        .meta("scale", scale())
        .meta("threads", 8)
        .section("data", crate::table_section(&header, &rows))
}
