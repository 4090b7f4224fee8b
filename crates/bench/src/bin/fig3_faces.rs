//! Fig. 3: how uncertain boundaries reshape the face division.
//!
//! Four sensors in a square; as the square grows (relative spacing up),
//! the uncertain bands occupy more of each pair's geometry until no
//! *certain* face (a face outside every pair's uncertain area) survives —
//! the paper's Fig. 3(a) → 3(c) transition. Also contrasts the C = 1
//! bisector division (Fig. 3(a)) with the uncertain division (Fig. 3(b)).

use fttt::facemap::FaceMap;
use fttt::PaperParams;
use fttt_bench::{Cli, Table};
use wsn_geometry::{Point, Rect};

fn square(center: Point, half: f64) -> Vec<Point> {
    vec![
        Point::new(center.x - half, center.y - half),
        Point::new(center.x + half, center.y - half),
        Point::new(center.x - half, center.y + half),
        Point::new(center.x + half, center.y + half),
    ]
}

fn main() {
    let cli = Cli::parse();
    let params = PaperParams::default();
    let c = params.uncertainty_constant();
    let field = Rect::square(100.0);
    let center = field.center();
    let cell = if cli.fast { 1.0 } else { 0.5 };

    println!("Uncertainty constant C = {c:.4} (β = 4, σ = 6, ε = 1)\n");

    // A fixed 20×20 m observation window at the field centre: the zone a
    // target actually crosses. "Certainty" is meaningful relative to this,
    // because the band arrangement itself is scale invariant.
    let window = wsn_geometry::Rect::new(
        Point::new(center.x - 10.0, center.y - 10.0),
        Point::new(center.x + 10.0, center.y + 10.0),
    );

    let mut t = Table::new(
        "Fig. 3 — Faces of a 4-node square vs node spacing (cell = 0.5 m)",
        &[
            "spacing (m)",
            "faces (C=1)",
            "certain (C=1)",
            "faces (C)",
            "certain (C)",
            "certain area %",
            "window certain %",
        ],
    );
    for half in [5.0, 10.0, 15.0, 20.0, 30.0, 40.0] {
        let pos = square(center, half);
        let bisect = FaceMap::build(&pos, field, 1.0, cell);
        let uncertain = FaceMap::build(&pos, field, c, cell);
        let certain_cells: usize = uncertain
            .faces()
            .iter()
            .filter(|f| uncertain.is_certain(f.id))
            .map(|f| f.cell_count)
            .sum();
        let pct = 100.0 * certain_cells as f64 / uncertain.grid().cell_count() as f64;
        let (win_total, win_certain) = uncertain
            .grid()
            .iter_centers()
            .filter(|&(_, p)| window.contains(p))
            .fold((0usize, 0usize), |(tot, cer), (_, p)| {
                let id = uncertain.face_at(p).expect("window is in-field");
                (tot + 1, cer + usize::from(uncertain.is_certain(id)))
            });
        let win_pct = 100.0 * win_certain as f64 / win_total as f64;
        t.row(&[
            format!("{:.0}", 2.0 * half),
            format!("{}", bisect.face_count()),
            format!("{}", bisect.certain_face_count()),
            format!("{}", uncertain.face_count()),
            format!("{}", uncertain.certain_face_count()),
            format!("{pct:.1}"),
            format!("{win_pct:.1}"),
        ]);
    }
    t.print();
    println!();
    println!("Expected shape: the face structure itself is scale invariant (the");
    println!("Apollonius bands grow with the pair separation), so the counts are");
    println!("constant across spacing. What changes is certainty relative to a fixed");
    println!("observation zone: the last column shows the central 20×20 m window");
    println!("losing its certain coverage as the nodes move apart — the operational");
    println!("content of the paper's Fig. 3(a) → 3(c) transition.");
}
