//! Least-squares fits, including the log-log power-law fit. Test-only: no
//! report prints a fit, and these tests check the fits themselves.

/// Result of a simple linear regression `y = intercept + slope·x`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LinearFit {
    /// Slope of the fitted line.
    slope: f64,
    /// Intercept of the fitted line.
    intercept: f64,
    /// Coefficient of determination in [0, 1].
    r2: f64,
}

/// Ordinary least squares over `(x, y)` points. `None` with fewer than two
/// distinct x values.
fn linear_fit(points: &[(f64, f64)]) -> Option<LinearFit> {
    if points.len() < 2 {
        return None;
    }
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let syy: f64 = points.iter().map(|p| p.1 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;
    let ss_tot = syy - sy * sy / n;
    let r2 = if ss_tot > 0.0 {
        let r_num = n * sxy - sx * sy;
        (r_num * r_num) / (denom * (n * syy - sy * sy))
    } else {
        1.0 // constant y fitted exactly
    };
    Some(LinearFit {
        slope,
        intercept,
        r2,
    })
}

/// Fit `y = c·x^a` by linear regression in log-log space over points with
/// positive coordinates; returns `(a, r2)`.
fn power_law_fit(points: &[(f64, f64)]) -> Option<(f64, f64)> {
    let logged: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(x, y)| x > 0.0 && y > 0.0)
        .map(|&(x, y)| (x.ln(), y.ln()))
        .collect();
    linear_fit(&logged).map(|f| (f.slope, f.r2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 + 2.0 * i as f64)).collect();
        let f = linear_fit(&pts).unwrap();
        assert!((f.slope - 2.0).abs() < 1e-12);
        assert!((f.intercept - 3.0).abs() < 1e-12);
        assert!((f.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_line_r2_below_one() {
        let pts: Vec<(f64, f64)> = (0..50)
            .map(|i| {
                let x = i as f64;
                (x, x + if i % 2 == 0 { 2.0 } else { -2.0 })
            })
            .collect();
        let f = linear_fit(&pts).unwrap();
        assert!((f.slope - 1.0).abs() < 0.05);
        assert!(f.r2 < 1.0 && f.r2 > 0.9);
    }

    #[test]
    fn power_law_exponent_recovered() {
        let pts: Vec<(f64, f64)> = (1..100)
            .map(|i| {
                let x = i as f64;
                (x, 5.0 * x.powf(-0.7))
            })
            .collect();
        let (a, r2) = power_law_fit(&pts).unwrap();
        assert!((a + 0.7).abs() < 1e-9);
        assert!((r2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn power_law_ignores_nonpositive_points() {
        let mut pts: Vec<(f64, f64)> = (1..50).map(|i| (i as f64, (i as f64).powi(2))).collect();
        pts.push((0.0, 5.0));
        pts.push((3.0, 0.0));
        pts.push((-1.0, 2.0));
        let (a, _) = power_law_fit(&pts).unwrap();
        assert!((a - 2.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_inputs_are_none() {
        assert!(linear_fit(&[]).is_none());
        assert!(linear_fit(&[(1.0, 1.0)]).is_none());
        assert!(linear_fit(&[(2.0, 1.0), (2.0, 5.0)]).is_none());
    }

    #[test]
    fn constant_y_has_unit_r2() {
        let f = linear_fit(&[(0.0, 4.0), (1.0, 4.0), (2.0, 4.0)]).unwrap();
        assert_eq!(f.slope, 0.0);
        assert!((f.r2 - 1.0).abs() < 1e-12);
    }
}
