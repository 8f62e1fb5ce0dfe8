//! Basic geometric primitives: dimensionality, points, and axis-aligned boxes.
//!
//! The mesh is defined over the unit cube `[0,1]^d`. All geometry here is in
//! *physical* (floating-point) coordinates; integer octant coordinates live in
//! [`crate::octant`].

/// Spatial dimensionality of the mesh.
///
/// Block-structured AMR codes run 2D and 3D problems; the paper's evaluation
/// is 3D (Sedov Blast Wave 3D) but the octree/SFC machinery is
/// dimension-generic (Fig. 5 illustrates the 2D case).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dim {
    /// Two dimensions: quadtree, up to 8 neighbors (4 faces + 4 vertices).
    D2,
    /// Three dimensions: octree, up to 26 neighbors (6 faces, 12 edges, 8 vertices).
    D3,
}

impl Dim {
    /// Number of spatial dimensions as a `usize`.
    #[inline]
    pub fn rank(self) -> usize {
        match self {
            Dim::D2 => 2,
            Dim::D3 => 3,
        }
    }

    /// Number of children an octant splits into on refinement (`2^d`).
    #[inline]
    pub fn children_per_octant(self) -> usize {
        1 << self.rank()
    }
}

/// A point in physical coordinates. The `z` component is 0 in 2D.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl Point {
    /// Construct a 3D point.
    #[inline]
    pub fn new(x: f64, y: f64, z: f64) -> Self {
        Point { x, y, z }
    }

    /// Construct a 2D point (z = 0).
    #[inline]
    pub fn new2(x: f64, y: f64) -> Self {
        Point { x, y, z: 0.0 }
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn distance(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        let dz = self.z - other.z;
        (dx * dx + dy * dy + dz * dz).sqrt()
    }

    /// Euclidean norm of the point treated as a vector.
    #[inline]
    pub fn norm(&self) -> f64 {
        (self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }
}

/// Axis-aligned bounding box in physical coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    pub lo: Point,
    pub hi: Point,
}

impl Aabb {
    /// Create a box from its lower and upper corners.
    pub fn new(lo: Point, hi: Point) -> Self {
        debug_assert!(lo.x <= hi.x && lo.y <= hi.y && lo.z <= hi.z);
        Aabb { lo, hi }
    }

    /// The unit cube `[0,1]^3` (also used as `[0,1]^2 x {0}` in 2D).
    pub fn unit() -> Self {
        Aabb {
            lo: Point::new(0.0, 0.0, 0.0),
            hi: Point::new(1.0, 1.0, 1.0),
        }
    }

    /// Geometric center of the box.
    #[inline]
    pub fn center(&self) -> Point {
        Point {
            x: 0.5 * (self.lo.x + self.hi.x),
            y: 0.5 * (self.lo.y + self.hi.y),
            z: 0.5 * (self.lo.z + self.hi.z),
        }
    }

    /// Edge lengths along each axis.
    #[inline]
    pub fn extent(&self) -> Point {
        Point {
            x: self.hi.x - self.lo.x,
            y: self.hi.y - self.lo.y,
            z: self.hi.z - self.lo.z,
        }
    }

    /// Does this box contain the point (closed on the low side, open on the
    /// high side, matching octant tiling semantics)?
    #[inline]
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.lo.x
            && p.x < self.hi.x
            && p.y >= self.lo.y
            && p.y < self.hi.y
            && p.z >= self.lo.z
            && p.z < self.hi.z
    }

    /// Do two boxes overlap (with positive measure)?
    #[inline]
    pub fn intersects(&self, other: &Aabb) -> bool {
        self.lo.x < other.hi.x
            && other.lo.x < self.hi.x
            && self.lo.y < other.hi.y
            && other.lo.y < self.hi.y
            && self.lo.z < other.hi.z
            && other.lo.z < self.hi.z
    }

    /// Shortest distance from a point to this box (0 if inside).
    pub fn distance_to_point(&self, p: &Point) -> f64 {
        let dx = (self.lo.x - p.x).max(0.0).max(p.x - self.hi.x);
        let dy = (self.lo.y - p.y).max(0.0).max(p.y - self.hi.y);
        let dz = (self.lo.z - p.z).max(0.0).max(p.z - self.hi.z);
        (dx * dx + dy * dy + dz * dz).sqrt()
    }

    /// Largest distance from a point to any corner of this box.
    pub fn max_distance_to_point(&self, p: &Point) -> f64 {
        let dx = (p.x - self.lo.x).abs().max((p.x - self.hi.x).abs());
        let dy = (p.y - self.lo.y).abs().max((p.y - self.hi.y).abs());
        let dz = (p.z - self.lo.z).abs().max((p.z - self.hi.z).abs());
        (dx * dx + dy * dy + dz * dz).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim_counts() {
        assert_eq!(Dim::D2.rank(), 2);
        assert_eq!(Dim::D3.rank(), 3);
        assert_eq!(Dim::D2.children_per_octant(), 4);
        assert_eq!(Dim::D3.children_per_octant(), 8);
    }

    #[test]
    fn point_distance() {
        let a = Point::new(0.0, 0.0, 0.0);
        let b = Point::new(3.0, 4.0, 0.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
        assert!((b.norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn aabb_contains_half_open() {
        let b = Aabb::unit();
        assert!(b.contains(&Point::new(0.0, 0.0, 0.0)));
        assert!(b.contains(&Point::new(0.999, 0.5, 0.5)));
        assert!(!b.contains(&Point::new(1.0, 0.5, 0.5)));
    }

    #[test]
    fn aabb_intersects() {
        let a = Aabb::new(Point::new(0.0, 0.0, 0.0), Point::new(0.5, 0.5, 0.5));
        let b = Aabb::new(Point::new(0.4, 0.4, 0.4), Point::new(1.0, 1.0, 1.0));
        let c = Aabb::new(Point::new(0.5, 0.0, 0.0), Point::new(1.0, 0.5, 0.5));
        assert!(a.intersects(&b));
        // Touching at a face is not positive-measure overlap.
        assert!(!a.intersects(&c));
    }

    #[test]
    fn aabb_point_distances() {
        let b = Aabb::unit();
        let inside = Point::new(0.5, 0.5, 0.5);
        assert_eq!(b.distance_to_point(&inside), 0.0);
        let outside = Point::new(2.0, 0.5, 0.5);
        assert!((b.distance_to_point(&outside) - 1.0).abs() < 1e-12);
        let corner_far = b.max_distance_to_point(&Point::new(0.0, 0.0, 0.0));
        assert!((corner_far - 3f64.sqrt()).abs() < 1e-12);
    }
}
