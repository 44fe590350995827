//! Decimal text for the completion log, appended to a caller's buffer
//! without allocating: unsigned integers, and `f64` in the shortest
//! round-trip form std's `Display` prints (`format!("{}", x)`), byte for
//! byte.
//!
//! The float digits come from Ryū (U. Adams, "Ryū: fast float-to-string
//! conversion", PLDI 2018): the shortest decimal that parses back to `x`,
//! and of those the one nearest `x`. One rule follows std rather than the
//! reference implementation: an exact tie between the two nearest shortest
//! candidates rounds half *up*, where reference Ryū rounds half to even
//! (2⁻²⁵ prints `0.000000029802322387695313`, not `…312`). Half-up needs
//! no record of whether the scaled value is exact, so the reference's
//! `vrIsTrailingZeros` bookkeeping is gone.
//!
//! The layout is std's too: no exponent at any magnitude, no trailing
//! `.0`, `-0` for negative zero, `NaN`, `inf` and `-inf`.
//!
//! The 128-bit power-of-five tables are computed at compile time from exact
//! big-integer powers of five; no constant in them is pasted in.

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i32 = 1023;
/// Bits kept of each 5^i (and of each 2^k / 5^i) in the tables.
const POW5_BITCOUNT: u32 = 125;
const POW5_INV_BITCOUNT: u32 = 125;
const POW5_TABLE_SIZE: usize = 326;
const POW5_INV_TABLE_SIZE: usize = 342;

/// `5^i` scaled to exactly [`POW5_BITCOUNT`] bits (truncated).
static POW5_SPLIT: [u128; POW5_TABLE_SIZE] = pow5_split();
/// `⌊2^j / 5^i⌋ + 1` with `j = bitlen(5^i) - 1 + POW5_INV_BITCOUNT`.
static POW5_INV_SPLIT: [u128; POW5_INV_TABLE_SIZE] = pow5_inv_split();

/// "00" "01" … "99": two digits per division by 100.
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// Little-endian limbs wide enough for 2^1024 and 5^341 (792 bits).
const LIMBS: usize = 17;
type Big = [u64; LIMBS];

/// `⌈log2 5^e⌉` for `e ≥ 1` (1 for `e = 0`), i.e. the bit length of 5^e.
#[inline]
const fn pow5bits(e: u32) -> u32 {
    ((e * 1_217_359) >> 19) + 1
}

const fn bit_length(x: &Big) -> usize {
    let mut w = LIMBS;
    while w > 0 {
        w -= 1;
        if x[w] != 0 {
            return 64 * w + 64 - x[w].leading_zeros() as usize;
        }
    }
    0
}

/// Bits `[lo, lo + 64)` of `x`, zero past its top limb.
const fn limb_window(x: &Big, lo: usize) -> u64 {
    let (w, s) = (lo / 64, lo % 64);
    let low = if w < LIMBS { x[w] >> s } else { 0 };
    let high = if s > 0 && w + 1 < LIMBS {
        x[w + 1] << (64 - s)
    } else {
        0
    };
    low | high
}

/// `⌊x / 2^lo⌋`, which the caller knows fits 128 bits.
const fn shr128(x: &Big, lo: usize) -> u128 {
    limb_window(x, lo) as u128 | (limb_window(x, lo + 64) as u128) << 64
}

const fn pow5_split() -> [u128; POW5_TABLE_SIZE] {
    let mut table = [0u128; POW5_TABLE_SIZE];
    let mut p: Big = [0; LIMBS];
    p[0] = 1;
    let mut i = 0;
    while i < POW5_TABLE_SIZE {
        let bits = bit_length(&p);
        // The runtime sizes its shifts with `pow5bits`; it must agree.
        assert!(bits == pow5bits(i as u32) as usize);
        let keep = POW5_BITCOUNT as usize;
        table[i] = if bits >= keep {
            shr128(&p, bits - keep)
        } else {
            shr128(&p, 0) << (keep - bits)
        };
        // p *= 5
        let mut carry = 0u128;
        let mut k = 0;
        while k < LIMBS {
            let v = p[k] as u128 * 5 + carry;
            p[k] = v as u64;
            carry = v >> 64;
            k += 1;
        }
        assert!(carry == 0);
        i += 1;
    }
    table
}

const fn pow5_inv_split() -> [u128; POW5_INV_TABLE_SIZE] {
    const N: usize = 1024;
    let mut table = [0u128; POW5_INV_TABLE_SIZE];
    // q = ⌊2^N / 5^i⌋, so ⌊q / 2^(N - j)⌋ = ⌊2^j / 5^i⌋ for any j ≤ N.
    let mut q: Big = [0; LIMBS];
    q[N / 64] = 1;
    let mut i = 0;
    while i < POW5_INV_TABLE_SIZE {
        let j = (pow5bits(i as u32) - 1 + POW5_INV_BITCOUNT) as usize;
        assert!(j <= N);
        table[i] = shr128(&q, N - j) + 1;
        // q = ⌊q / 5⌋
        let mut rem = 0u128;
        let mut k = LIMBS;
        while k > 0 {
            k -= 1;
            let v = rem << 64 | q[k] as u128;
            q[k] = (v / 5) as u64;
            rem = v % 5;
        }
        i += 1;
    }
    table
}

/// `⌊log10 2^e⌋` for `0 ≤ e ≤ 1650`.
#[inline]
fn log10_pow2(e: u32) -> u32 {
    (e * 78_913) >> 18
}

/// `⌊log10 5^e⌋` for `0 ≤ e ≤ 2620`.
#[inline]
fn log10_pow5(e: u32) -> u32 {
    (e * 732_923) >> 20
}

#[inline]
fn multiple_of_pow5(mut v: u64, p: u32) -> bool {
    let mut count = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        count += 1;
    }
    count >= p
}

/// `⌊m · mul / 2^j⌋` for `64 ≤ j < 192`.
#[inline]
fn mul_shift(m: u64, mul: u128, j: u32) -> u64 {
    let low = u128::from(m) * u128::from(mul as u64);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// Shortest nearest decimal `digits · 10^exp` for a finite, positive
/// `f64` given by its bits.
fn shortest(bits: u64) -> (u64, i32) {
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = (bits >> MANTISSA_BITS) as u32;
    // Two extra bits of exponent leave room for the half-gap bounds.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // Round-half-even parsing maps both bounds back to an even mantissa.
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    // A normal power of two sits on an exponent step: half as far to its
    // lower neighbour. std's decoder narrows the gap for the smallest
    // normal too, where reference Ryū does not; both print it the same.
    let mm_shift = u64::from(ieee_mantissa != 0);
    let mm = mv - 1 - mm_shift;
    let mp = mv + 2;

    // Scale the value and its bounds to decimal: v = m · 2^e2 / 10^e10.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_is_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2 as u32) - u32::from(e2 > 3);
        e10 = q as i32;
        let j = (q + POW5_INV_BITCOUNT + pow5bits(q) - 1) as i32 - e2;
        let mul = POW5_INV_SPLIT[q as usize];
        vr = mul_shift(mv, mul, j as u32);
        vp = mul_shift(mp, mul, j as u32);
        vm = mul_shift(mm, mul, j as u32);
        // A bound is exact iff 5^q divides it, which below 2^55 needs
        // q ≤ 23 (reference Ryū checks q ≤ 21 only).
        if q <= 23 {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_pow5(mm, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mp, q));
            }
        }
    } else {
        let q = log10_pow5((-e2) as u32) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = (-e2) as u32 - q;
        let j = q + POW5_BITCOUNT - pow5bits(i);
        let mul = POW5_SPLIT[i as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mp, mul, j);
        vm = mul_shift(mm, mul, j);
        // A bound is exact iff 2^q divides it: mm has one trailing zero
        // bit when mm_shift = 1, mp always has one.
        if q <= 1 {
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter candidate, then
    // round the last dropped digit half up.
    let mut removed = 0;
    let digits = if vm_is_trailing_zeros {
        // Rare: the inclusive lower bound is itself a candidate.
        let mut last = 0;
        while vp / 10 > vm / 10 {
            vm_is_trailing_zeros &= vm % 10 == 0;
            last = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_is_trailing_zeros {
            while vm % 10 == 0 {
                last = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        vr + u64::from((vr == vm && !vm_is_trailing_zeros) || last >= 5)
    } else {
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (digits, e10 + removed)
}

/// The decimal digits of `v`, right-aligned in `buf`; returns where they
/// start.
#[inline]
fn write_digits(mut v: u64, buf: &mut [u8; 20]) -> usize {
    let mut i = buf.len();
    while v >= 100 {
        let d = (v % 100) as usize * 2;
        v /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    }
    if v >= 10 {
        let d = v as usize * 2;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    i
}

/// Append `v` in decimal.
#[inline]
pub(crate) fn push_u64(out: &mut Vec<u8>, v: u64) {
    let mut buf = [0u8; 20];
    let start = write_digits(v, &mut buf);
    out.extend_from_slice(&buf[start..]);
}

/// Append `x` exactly as `format!("{}", x)` prints it.
pub(crate) fn push_f64(out: &mut Vec<u8>, x: f64) {
    if x.is_nan() {
        out.extend_from_slice(b"NaN");
        return;
    }
    if x.is_sign_negative() {
        out.push(b'-');
    }
    let x = x.abs();
    if x == 0.0 {
        out.push(b'0');
        return;
    }
    if x.is_infinite() {
        out.extend_from_slice(b"inf");
        return;
    }
    let (mantissa, exp) = shortest(x.to_bits());
    let mut buf = [0u8; 20];
    let start = write_digits(mantissa, &mut buf);
    let digits = &buf[start..];
    let len = digits.len() as i32;
    // The value is 0.d₁d₂… · 10^point.
    let point = exp + len;
    if point <= 0 {
        out.extend_from_slice(b"0.");
        out.resize(out.len() + (-point) as usize, b'0');
        out.extend_from_slice(digits);
    } else if point < len {
        let (int, frac) = digits.split_at(point as usize);
        out.extend_from_slice(int);
        out.push(b'.');
        out.extend_from_slice(frac);
    } else {
        out.extend_from_slice(digits);
        out.resize(out.len() + (point - len) as usize, b'0');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn text(x: f64) -> String {
        let mut out = Vec::new();
        push_f64(&mut out, x);
        String::from_utf8(out).expect("ASCII output")
    }

    type Mismatch = (u64, String, String);

    /// How many values print differently from std's `Display`, and the
    /// first few of them as `(bits, ours, std)`.
    fn mismatches(values: impl IntoIterator<Item = f64>) -> (usize, Vec<Mismatch>) {
        let (mut count, mut first) = (0, Vec::new());
        let mut ours = Vec::new();
        let mut std = String::new();
        for x in values {
            use std::fmt::Write;
            ours.clear();
            push_f64(&mut ours, x);
            std.clear();
            write!(std, "{x}").expect("writing to a String cannot fail");
            if ours != std.as_bytes() {
                count += 1;
                if first.len() < 10 {
                    let ours = String::from_utf8_lossy(&ours).into_owned();
                    first.push((x.to_bits(), ours, std.clone()));
                }
            }
        }
        (count, first)
    }

    /// `n` seeded draws of each family the differential test covers.
    fn differential_samples(seed: u64, n: usize) -> impl Iterator<Item = f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let two40 = 2f64.powi(40);
        (0..n).flat_map(move |_| {
            let bits = rng.next_u64();
            // Any finite f64 (a NaN/inf pattern keeps its mantissa at a
            // finite exponent).
            let any = f64::from_bits(if (bits >> 52) & 0x7ff == 0x7ff {
                bits & !(1 << 62)
            } else {
                bits
            });
            // Completion-like times, uniform in [0, 2^40].
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            let time = u * two40;
            // Integers of every magnitude, and as millisecond counts.
            let int = (rng.next_u64() >> (rng.next_u64() % 64)) as f64;
            [any, time, int, int / 1000.0]
        })
    }

    #[test]
    fn fixtures_pin_tie_rule_and_edges() {
        // Exact ties round half up, as std does (Ryū's half-even would
        // print …387695312).
        assert_eq!(text(2f64.powi(-25)), "0.000000029802322387695313");
        assert_eq!(
            text(f64::from_bits(0x4310_0000_0000_0001)),
            "1125899906842624.3"
        );
        assert_eq!(text(0.0), "0");
        assert_eq!(text(-0.0), "-0");
        assert_eq!(text(1.0), "1");
        assert_eq!(text(-2.5), "-2.5");
        assert_eq!(text(0.1), "0.1");
        assert_eq!(text(f64::NAN), "NaN");
        assert_eq!(text(f64::INFINITY), "inf");
        assert_eq!(text(f64::NEG_INFINITY), "-inf");
        for x in [
            5e-324,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            1e23,
            9007199254740993.0,
        ] {
            assert_eq!(text(x), format!("{x}"), "bits {:#x}", x.to_bits());
            assert_eq!(text(-x), format!("{}", -x));
        }
    }

    #[test]
    fn integers_print_plainly() {
        for v in [0, 7, 10, 99, 100, 12_345, u64::MAX] {
            let mut out = Vec::new();
            push_u64(&mut out, v);
            assert_eq!(out, v.to_string().as_bytes());
        }
    }

    #[test]
    fn matches_std_at_every_power_of_two_and_its_neighbours() {
        let values = (0..2046u64).flat_map(|e| {
            let p = (e + 1) << 52;
            [p - 1, p, p + 1].map(f64::from_bits)
        });
        assert_eq!(mismatches(values), (0, vec![]));
        // The subnormal powers of two.
        assert_eq!(
            mismatches((0..52).map(|k| f64::from_bits(1 << k))),
            (0, vec![])
        );
    }

    #[test]
    fn matches_std_where_the_lower_bound_is_exact() {
        // mm = 4·m2 − 2 = 14 · 5^22 with m2 even: an inclusive lower bound
        // that is an exact short decimal at every decimal exponent q ≤ 22.
        let m2: u64 = 8_344_650_268_554_688;
        let values = (1100..1200u64).map(|e| f64::from_bits(e << 52 | (m2 - (1 << 52))));
        assert_eq!(mismatches(values), (0, vec![]));
    }

    #[test]
    fn matches_std_on_seeded_random_values() {
        assert_eq!(
            mismatches(differential_samples(0x5eed, 250_000)),
            (0, vec![])
        );
    }

    /// The long differential run (≥ 20M values) for the `--ignored` lane.
    #[test]
    #[ignore = "smoke lane: 20M-value differential run"]
    fn matches_std_on_twenty_million_random_values() {
        assert_eq!(
            mismatches(differential_samples(0x0dd_ba11, 5_000_000)),
            (0, vec![])
        );
    }
}
