//! ASCII rendering of simulation states — the reproduction's stand-in for
//! the INSQ Swing UI: the demo draws these states on a map canvas, this
//! crate prints them as character grids.
//!
//! Legend (both modes):
//!
//! * `Q` — the query object (red dot in the paper's screenshots)
//! * `K` — a current kNN member (green)
//! * `i` — an influential neighbor (yellow)
//! * `.` — any other data object (orange)
//! * `:` — interior of the current safe region (2D mode; cyan polygon)
//! * `-' | ' / \ +` — road edges (network mode)

use insq_geom::{Aabb, Point};
use insq_paper::ConvexPolygon;
use insq_roadnet::RoadNetwork;

/// A fixed-size character canvas mapping a world-space window.
#[derive(Debug, Clone)]
pub struct Canvas {
    width: usize,
    height: usize,
    window: Aabb,
    cells: Vec<char>,
}

impl Canvas {
    /// Creates an empty canvas over `window`.
    pub fn new(width: usize, height: usize, window: Aabb) -> Canvas {
        Canvas {
            width: width.max(4),
            height: height.max(4),
            window,
            cells: vec![' '; width.max(4) * height.max(4)],
        }
    }

    fn to_cell(&self, p: Point) -> Option<(usize, usize)> {
        if !self.window.contains(p) {
            return None;
        }
        let fx = (p.x - self.window.min.x) / self.window.width();
        let fy = (p.y - self.window.min.y) / self.window.height();
        let cx = ((fx * (self.width - 1) as f64).round() as usize).min(self.width - 1);
        // Screen y grows downward.
        let cy = (((1.0 - fy) * (self.height - 1) as f64).round() as usize).min(self.height - 1);
        Some((cx, cy))
    }

    /// Plots a character at a world position (later plots win).
    pub fn plot(&mut self, p: Point, c: char) {
        if let Some((x, y)) = self.to_cell(p) {
            self.cells[y * self.width + x] = c;
        }
    }

    /// Plots a character only on blank cells (background layers).
    pub fn plot_soft(&mut self, p: Point, c: char) {
        if let Some((x, y)) = self.to_cell(p) {
            let cell = &mut self.cells[y * self.width + x];
            if *cell == ' ' {
                *cell = c;
            }
        }
    }

    /// Draws a world-space line segment with a character (soft).
    pub fn line(&mut self, a: Point, b: Point, c: char) {
        let steps = (2 * self.width.max(self.height)) as f64;
        for i in 0..=steps as usize {
            self.plot_soft(a.lerp(b, i as f64 / steps), c);
        }
    }

    /// Fills the interior of a convex polygon (soft).
    pub fn fill_polygon(&mut self, poly: &ConvexPolygon, c: char) {
        if poly.is_empty() {
            return;
        }
        for y in 0..self.height {
            for x in 0..self.width {
                let fx = x as f64 / (self.width - 1) as f64;
                let fy = 1.0 - y as f64 / (self.height - 1) as f64;
                let p = Point::new(
                    self.window.min.x + fx * self.window.width(),
                    self.window.min.y + fy * self.window.height(),
                );
                if poly.contains(p) {
                    let cell = &mut self.cells[y * self.width + x];
                    if *cell == ' ' {
                        *cell = c;
                    }
                }
            }
        }
    }

    /// Renders the canvas with a border.
    pub fn to_string_framed(&self) -> String {
        let mut out = String::with_capacity((self.width + 3) * (self.height + 2));
        out.push('+');
        out.extend(std::iter::repeat_n('-', self.width));
        out.push_str("+\n");
        for y in 0..self.height {
            out.push('|');
            for x in 0..self.width {
                out.push(self.cells[y * self.width + x]);
            }
            out.push_str("|\n");
        }
        out.push('+');
        out.extend(std::iter::repeat_n('-', self.width));
        out.push('+');
        out
    }
}

/// Renders a Euclidean frame: all objects, the kNN (`K`), the INS (`i`),
/// the query (`Q`) and optionally the safe-region polygon (`:`).
#[allow(clippy::too_many_arguments)]
pub fn render_euclidean(
    points: &[Point],
    knn: &[usize],
    ins: &[usize],
    query: Point,
    region: Option<&ConvexPolygon>,
    window: Aabb,
    width: usize,
    height: usize,
) -> String {
    let mut canvas = Canvas::new(width, height, window);
    if let Some(poly) = region {
        canvas.fill_polygon(poly, ':');
    }
    for (i, &p) in points.iter().enumerate() {
        let c = if knn.contains(&i) {
            'K'
        } else if ins.contains(&i) {
            'i'
        } else {
            '.'
        };
        canvas.plot(p, c);
    }
    canvas.plot(query, 'Q');
    canvas.to_string_framed()
}

/// Renders a road-network frame: edges as lines, sites (`.`), kNN (`K`),
/// INS (`i`), query (`Q`).
#[allow(clippy::too_many_arguments)]
pub fn render_network(
    net: &RoadNetwork,
    site_vertices: &[insq_roadnet::VertexId],
    knn: &[usize],
    ins: &[usize],
    query: Point,
    window: Aabb,
    width: usize,
    height: usize,
) -> String {
    let mut canvas = Canvas::new(width, height, window);
    for rec in net.edges() {
        canvas.line(net.coord(rec.u), net.coord(rec.v), '·');
    }
    for (i, &v) in site_vertices.iter().enumerate() {
        let c = if knn.contains(&i) {
            'K'
        } else if ins.contains(&i) {
            'i'
        } else {
            'o'
        };
        canvas.plot(net.coord(v), c);
    }
    canvas.plot(query, 'Q');
    canvas.to_string_framed()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window() -> Aabb {
        Aabb::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0))
    }

    #[test]
    fn frame_has_expected_dimensions() {
        let canvas = Canvas::new(20, 10, window());
        let s = canvas.to_string_framed();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 12); // 10 rows + 2 border lines
        assert!(lines.iter().all(|l| l.chars().count() == 22));
    }

    #[test]
    fn markers_rendered_with_priority() {
        let points = vec![
            Point::new(2.0, 2.0),
            Point::new(5.0, 5.0),
            Point::new(8.0, 8.0),
        ];
        let s = render_euclidean(
            &points,
            &[0],
            &[1],
            Point::new(1.0, 1.0),
            None,
            window(),
            30,
            15,
        );
        assert!(s.contains('K'));
        assert!(s.contains('i'));
        assert!(s.contains('.'));
        assert!(s.contains('Q'));
    }

    #[test]
    fn region_fill_appears() {
        let poly = ConvexPolygon::from_aabb(&Aabb::new(Point::new(4.0, 4.0), Point::new(6.0, 6.0)));
        let s = render_euclidean(
            &[],
            &[],
            &[],
            Point::new(5.0, 5.0),
            Some(&poly),
            window(),
            30,
            15,
        );
        assert!(s.contains(':'));
        assert!(s.contains('Q'));
    }

    #[test]
    fn out_of_window_points_are_clipped() {
        let mut canvas = Canvas::new(10, 10, window());
        canvas.plot(Point::new(50.0, 50.0), 'X');
        assert!(!canvas.to_string_framed().contains('X'));
    }
}
