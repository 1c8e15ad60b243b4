//! Planar geometry primitives and geodetic conversion.
//!
//! The paper stores locations as WGS84 latitude/longitude pairs and converts
//! them to UTM (Universal Transverse Mercator) so that Euclidean distances in
//! metres are meaningful.  This module provides the [`Point`] and [`Rect`]
//! primitives used throughout the workspace together with a WGS84 → UTM
//! projection and great-circle (haversine) distances.

use serde::{Deserialize, Serialize};

/// A point in a planar coordinate system, in metres.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// Easting / x coordinate in metres.
    pub x: f64,
    /// Northing / y coordinate in metres.
    pub y: f64,
}

impl Point {
    /// Creates a point from x/y coordinates in metres.
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point, in metres.
    pub fn distance(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Squared Euclidean distance (avoids the square root when only ordering matters).
    pub fn distance_sq(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Midpoint between this point and `other`.
    pub fn midpoint(&self, other: &Point) -> Point {
        Point::new((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)
    }

    /// Returns true if both coordinates are finite numbers.
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

/// An axis-aligned rectangle, used for the query region of interest `Q.Λ`
/// and for grid-index cells.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rect {
    /// Minimum x (west edge).
    pub min_x: f64,
    /// Minimum y (south edge).
    pub min_y: f64,
    /// Maximum x (east edge).
    pub max_x: f64,
    /// Maximum y (north edge).
    pub max_y: f64,
}

impl Rect {
    /// Creates a rectangle from its corner coordinates, normalising the order
    /// so that `min_* <= max_*`.
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        Rect {
            min_x: min_x.min(max_x),
            min_y: min_y.min(max_y),
            max_x: min_x.max(max_x),
            max_y: min_y.max(max_y),
        }
    }

    /// Creates a square rectangle centred at `center` with the given side length.
    pub fn centered_square(center: Point, side: f64) -> Self {
        let half = side / 2.0;
        Rect::new(
            center.x - half,
            center.y - half,
            center.x + half,
            center.y + half,
        )
    }

    /// Creates a rectangle centred at `center` with the given width and height.
    pub fn centered(center: Point, width: f64, height: f64) -> Self {
        Rect::new(
            center.x - width / 2.0,
            center.y - height / 2.0,
            center.x + width / 2.0,
            center.y + height / 2.0,
        )
    }

    /// Smallest rectangle containing every point in `points`.
    ///
    /// Returns `None` for an empty iterator.
    pub fn bounding(points: impl IntoIterator<Item = Point>) -> Option<Rect> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut r = Rect::new(first.x, first.y, first.x, first.y);
        for p in it {
            r.min_x = r.min_x.min(p.x);
            r.min_y = r.min_y.min(p.y);
            r.max_x = r.max_x.max(p.x);
            r.max_y = r.max_y.max(p.y);
        }
        Some(r)
    }

    /// Width of the rectangle in metres.
    pub fn width(&self) -> f64 {
        self.max_x - self.min_x
    }

    /// Height of the rectangle in metres.
    pub fn height(&self) -> f64 {
        self.max_y - self.min_y
    }

    /// Area of the rectangle in square metres.
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Area of the rectangle in square kilometres (the unit used by the paper
    /// when quoting `Q.Λ` sizes, e.g. "100 km²").
    pub fn area_km2(&self) -> f64 {
        self.area() / 1.0e6
    }

    /// Centre of the rectangle.
    pub fn center(&self) -> Point {
        Point::new(
            (self.min_x + self.max_x) / 2.0,
            (self.min_y + self.max_y) / 2.0,
        )
    }

    /// Whether the rectangle contains `p` (boundary inclusive).
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.min_x && p.x <= self.max_x && p.y >= self.min_y && p.y <= self.max_y
    }

    /// Whether the rectangle intersects another rectangle (boundary inclusive).
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min_x <= other.max_x
            && self.max_x >= other.min_x
            && self.min_y <= other.max_y
            && self.max_y >= other.min_y
    }

    /// The intersection of two rectangles, or `None` if they do not overlap.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect {
            min_x: self.min_x.max(other.min_x),
            min_y: self.min_y.max(other.min_y),
            max_x: self.max_x.min(other.max_x),
            max_y: self.max_y.min(other.max_y),
        })
    }

    /// Grows the rectangle by `margin` metres on every side.
    pub fn expanded(&self, margin: f64) -> Rect {
        Rect::new(
            self.min_x - margin,
            self.min_y - margin,
            self.max_x + margin,
            self.max_y + margin,
        )
    }
}

/// A WGS84 latitude/longitude pair in decimal degrees.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatLon {
    /// Latitude in degrees, positive north.
    pub lat: f64,
    /// Longitude in degrees, positive east.
    pub lon: f64,
}

impl LatLon {
    /// Creates a latitude/longitude pair.
    pub fn new(lat: f64, lon: f64) -> Self {
        LatLon { lat, lon }
    }

    /// Great-circle distance to another coordinate using the haversine formula,
    /// in metres.
    pub fn haversine_distance(&self, other: &LatLon) -> f64 {
        const EARTH_RADIUS_M: f64 = 6_371_000.0;
        let lat1 = self.lat.to_radians();
        let lat2 = other.lat.to_radians();
        let dlat = (other.lat - self.lat).to_radians();
        let dlon = (other.lon - self.lon).to_radians();
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        let c = 2.0 * a.sqrt().atan2((1.0 - a).sqrt());
        EARTH_RADIUS_M * c
    }

    /// UTM zone number (1..=60) for this longitude.
    pub fn utm_zone(&self) -> u8 {
        let z = ((self.lon + 180.0) / 6.0).floor() as i32 + 1;
        z.clamp(1, 60) as u8
    }

    /// Projects the coordinate to UTM easting/northing in metres (WGS84 ellipsoid),
    /// mirroring the paper's preprocessing ("convert the data to the UTM format,
    /// using World Geodetic System 84").
    ///
    /// The zone is chosen from the longitude; southern-hemisphere northings get
    /// the usual 10 000 km false northing so they stay positive.
    pub fn to_utm(&self) -> Point {
        // WGS84 ellipsoid constants.
        const A: f64 = 6_378_137.0; // semi-major axis
        const F: f64 = 1.0 / 298.257_223_563; // flattening
        const K0: f64 = 0.9996; // UTM scale factor
        let e2 = F * (2.0 - F); // eccentricity squared
        let ep2 = e2 / (1.0 - e2);

        let zone = self.utm_zone() as f64;
        let lon_origin = (zone - 1.0) * 6.0 - 180.0 + 3.0; // central meridian
        let lat_rad = self.lat.to_radians();
        let lon_rad = self.lon.to_radians();
        let lon_origin_rad = lon_origin.to_radians();

        let n = A / (1.0 - e2 * lat_rad.sin().powi(2)).sqrt();
        let t = lat_rad.tan().powi(2);
        let c = ep2 * lat_rad.cos().powi(2);
        let a_ = lat_rad.cos() * (lon_rad - lon_origin_rad);

        let m = A
            * ((1.0 - e2 / 4.0 - 3.0 * e2 * e2 / 64.0 - 5.0 * e2 * e2 * e2 / 256.0) * lat_rad
                - (3.0 * e2 / 8.0 + 3.0 * e2 * e2 / 32.0 + 45.0 * e2 * e2 * e2 / 1024.0)
                    * (2.0 * lat_rad).sin()
                + (15.0 * e2 * e2 / 256.0 + 45.0 * e2 * e2 * e2 / 1024.0) * (4.0 * lat_rad).sin()
                - (35.0 * e2 * e2 * e2 / 3072.0) * (6.0 * lat_rad).sin());

        let easting = K0
            * n
            * (a_
                + (1.0 - t + c) * a_.powi(3) / 6.0
                + (5.0 - 18.0 * t + t * t + 72.0 * c - 58.0 * ep2) * a_.powi(5) / 120.0)
            + 500_000.0;

        let mut northing = K0
            * (m + n
                * lat_rad.tan()
                * (a_ * a_ / 2.0
                    + (5.0 - t + 9.0 * c + 4.0 * c * c) * a_.powi(4) / 24.0
                    + (61.0 - 58.0 * t + t * t + 600.0 * c - 330.0 * ep2) * a_.powi(6) / 720.0));
        if self.lat < 0.0 {
            northing += 10_000_000.0;
        }
        Point::new(easting, northing)
    }
}

/// Converts a distance expressed in kilometres to metres.
pub fn km(value: f64) -> f64 {
    value * 1000.0
}

/// Converts a distance expressed in metres to kilometres.
pub fn to_km(metres: f64) -> f64 {
    metres / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(a.distance_sq(&b), 25.0);
        assert_eq!(a.midpoint(&b), Point::new(1.5, 2.0));
    }

    #[test]
    fn rect_normalises_corner_order() {
        let r = Rect::new(10.0, 20.0, -10.0, -20.0);
        assert_eq!(r.min_x, -10.0);
        assert_eq!(r.max_x, 10.0);
        assert_eq!(r.min_y, -20.0);
        assert_eq!(r.max_y, 20.0);
        assert_eq!(r.width(), 20.0);
        assert_eq!(r.height(), 40.0);
    }

    #[test]
    fn rect_contains_and_intersects() {
        let r = Rect::new(0.0, 0.0, 10.0, 10.0);
        assert!(r.contains(&Point::new(5.0, 5.0)));
        assert!(r.contains(&Point::new(0.0, 10.0)));
        assert!(!r.contains(&Point::new(10.01, 5.0)));
        let other = Rect::new(9.0, 9.0, 20.0, 20.0);
        assert!(r.intersects(&other));
        assert!(!r.intersects(&Rect::new(11.0, 11.0, 12.0, 12.0)));
        let inter = r.intersection(&other).unwrap();
        assert_eq!(inter, Rect::new(9.0, 9.0, 10.0, 10.0));
    }

    #[test]
    fn rect_centered_square_has_requested_area() {
        let r = Rect::centered_square(Point::new(100.0, 100.0), 10_000.0);
        assert!((r.area_km2() - 100.0).abs() < 1e-9);
        assert_eq!(r.center(), Point::new(100.0, 100.0));
    }

    #[test]
    fn bounding_box_of_points() {
        let pts = vec![
            Point::new(1.0, 5.0),
            Point::new(-2.0, 3.0),
            Point::new(4.0, -1.0),
        ];
        let r = Rect::bounding(pts).unwrap();
        assert_eq!(r, Rect::new(-2.0, -1.0, 4.0, 5.0));
        assert!(Rect::bounding(Vec::new()).is_none());
    }

    #[test]
    fn expanded_grows_on_all_sides() {
        let r = Rect::new(0.0, 0.0, 1.0, 1.0).expanded(1.0);
        assert_eq!(r, Rect::new(-1.0, -1.0, 2.0, 2.0));
    }

    #[test]
    fn haversine_distance_known_value() {
        // Times Square to the Empire State Building: roughly 1.0-1.2 km.
        let times_square = LatLon::new(40.758, -73.9855);
        let esb = LatLon::new(40.7484, -73.9857);
        let d = times_square.haversine_distance(&esb);
        assert!(d > 1000.0 && d < 1200.0, "distance {d}");
    }

    #[test]
    fn utm_zone_for_new_york_is_18() {
        let nyc = LatLon::new(40.75, -73.99);
        assert_eq!(nyc.utm_zone(), 18);
    }

    #[test]
    fn utm_projection_preserves_local_distances() {
        // Two points about 1.11 km apart along a meridian.
        let a = LatLon::new(40.750, -73.990);
        let b = LatLon::new(40.760, -73.990);
        let pa = a.to_utm();
        let pb = b.to_utm();
        let planar = pa.distance(&pb);
        let sphere = a.haversine_distance(&b);
        let rel_err = (planar - sphere).abs() / sphere;
        assert!(rel_err < 0.01, "planar {planar} vs sphere {sphere}");
    }

    #[test]
    fn utm_projection_southern_hemisphere_positive_northing() {
        let sydney = LatLon::new(-33.865, 151.21);
        let p = sydney.to_utm();
        assert!(p.y > 0.0);
        assert!(p.x > 0.0);
    }

    #[test]
    fn km_conversions_roundtrip() {
        assert_eq!(km(10.0), 10_000.0);
        assert_eq!(to_km(km(3.5)), 3.5);
    }
}
