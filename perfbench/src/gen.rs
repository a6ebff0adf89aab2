//! Seeded input generators with known answers.
//!
//! `deep_irregular` builds a binary call tree of subroutines that pass two
//! 2-D arrays down as formals. Leaves gather and scatter through a local
//! index array (which the interval fallback bounds) and, in a seeded
//! subset, through a COMMON index array (which it cannot bound, by design:
//! a callee could rewrite it). One procedure in ten carries a seeded
//! out-of-bounds access to a local work array. The generator returns the
//! sources together with the answer key: the procedure count, the
//! procedures with seeded defects, and the expected analysis-gap sites.
//!
//! `flat_affine` is `workloads::synthetic` unchanged; only the edit helper
//! for it lives here.

use workloads::GenSource;

/// Extent of every generated array dimension.
pub const N: i64 = 24;

/// A deterministic 64-bit generator (SplitMix64): the benchmark's inputs
/// depend only on the seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// What the analyzer must report for a generated program.
#[derive(Debug, Clone, Default)]
pub struct AnswerKey {
    /// Procedures in the program, `main` included.
    pub procedures: usize,
    /// Procedures with a seeded out-of-bounds access (must get `OOB-01`).
    pub defects: Vec<String>,
    /// Procedures that gather through a COMMON index array (must get the
    /// `NAF-06` analysis-gap finding: the subscript stays unbounded).
    pub gaps: Vec<String>,
    /// Procedures the interpreter can run as entry points: no arguments
    /// needed and no seeded defect anywhere in their call subtree.
    pub entries: Vec<String>,
}

/// A generated program, its answer key and the one-procedure edit used by
/// the incremental metrics.
pub struct Generated {
    pub sources: Vec<GenSource>,
    pub key: AnswerKey,
    /// The sources with the edit applied (same files, one changed).
    pub edited: Vec<GenSource>,
}

/// `0..n` in a seeded order (Fisher–Yates).
fn shuffled(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
    v
}

/// How a generated subroutine misbehaves, if at all.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Defect {
    None,
    /// Affine read one past the end of a local array (`definite`).
    Affine,
    /// Index-array gather whose values run one past the end (`possible`).
    Indexed,
}

/// `deep_irregular` with `procs` procedures (main included) over `files`
/// source files.
pub fn deep_irregular(procs: usize, files: usize, seed: u64) -> Generated {
    let m = procs.saturating_sub(1).max(1); // subroutines d0..d{m-1}
    let files = files.clamp(1, m);
    let mut rng = Rng::new(seed);
    let mut key = AnswerKey {
        procedures: m + 1,
        ..AnswerKey::default()
    };
    // Exactly one subroutine in ten gets a defect (alternating kinds) and
    // exactly one clean leaf in four a COMMON-index gather; the seed picks
    // which, so the program's shape does not vary between seeds.
    let mut defect = vec![Defect::None; m];
    for (n, k) in shuffled(m, &mut rng).into_iter().take(m / 10).enumerate() {
        defect[k] = if n % 2 == 0 {
            Defect::Affine
        } else {
            Defect::Indexed
        };
    }
    let clean_leaves: Vec<usize> = (0..m)
        .filter(|&k| 2 * k + 1 >= m && defect[k] == Defect::None)
        .collect();
    let mut gather = vec![false; m];
    for i in shuffled(clean_leaves.len(), &mut rng)
        .into_iter()
        .take(clean_leaves.len() / 4)
    {
        gather[clean_leaves[i]] = true;
    }
    let mut bodies: Vec<String> = Vec::with_capacity(m);
    for k in 0..m {
        let leaf = 2 * k + 1 >= m;
        if defect[k] != Defect::None {
            key.defects.push(format!("d{k}"));
        }
        if gather[k] {
            key.gaps.push(format!("d{k}"));
        }
        bodies.push(subroutine(k, m, leaf, defect[k], gather[k], &mut rng));
    }

    // Entry points for the dynamic oracle: defect-free subtrees of at most
    // 15 procedures (children of `d{k}` are `d{2k+1}` and `d{2k+2}`).
    let mut clean = vec![true; m];
    let mut size = vec![1usize; m];
    for k in (0..m).rev() {
        clean[k] = defect[k] == Defect::None;
        for c in [2 * k + 1, 2 * k + 2] {
            if c < m {
                clean[k] &= clean[c];
                size[k] += size[c];
            }
        }
    }
    key.entries = (0..m)
        .filter(|&k| clean[k] && size[k] <= 15)
        .map(|k| format!("d{k}"))
        .collect();

    let mut sources = Vec::with_capacity(files);
    let per = m.div_ceil(files);
    for f in 0..files {
        let mut text = String::new();
        if f == 0 {
            text.push_str(&main_program());
        }
        for body in bodies.iter().skip(f * per).take(per) {
            text.push_str(body);
        }
        sources.push(GenSource::fortran(format!("deep_{f:03}.f"), text));
    }
    // The edit: one loop bound in the last leaf of the last file.
    let mut edited = sources.clone();
    if let Some(last) = edited.last_mut() {
        last.text = shrink_last_loop_bound(&last.text, "subroutine d", "do j = ");
    }
    Generated {
        sources,
        key,
        edited,
    }
}

fn main_program() -> String {
    format!(
        "program main
  double precision x({N}, {N}), y({N}, {N})
  double precision s
  integer i, j
  do j = 1, {N}
    do i = 1, {N}
      x(i, j) = 1.0
      y(i, j) = 2.0
    end do
  end do
  call d0(x, y)
  s = 0.0
  do j = 1, {N}
    do i = 1, {N}
      s = s + x(i, j) + y(i, j)
    end do
  end do
end program main

"
    )
}

fn subroutine(
    k: usize,
    m: usize,
    leaf: bool,
    defect: Defect,
    common_gather: bool,
    rng: &mut Rng,
) -> String {
    let mut s = format!(
        "subroutine d{k}(x, y)
  double precision x({N}, {N}), y({N}, {N})
  integer i, j
"
    );
    let lo = 1 + rng.below(3) as i64;
    let hi = N - rng.below(3) as i64;
    if leaf {
        s.push_str(&format!("  integer idx({N})\n"));
        if common_gather {
            s.push_str(&format!("  integer ci({N})\n  common /cidx/ ci\n"));
        }
        // Local index array: a permutation (reversal or identity), written
        // once before any read — the shape the interval fallback bounds.
        let reversed = rng.below(2) == 0;
        s.push_str(&format!("  do i = 1, {N}\n"));
        if reversed {
            s.push_str(&format!("    idx(i) = {} - i\n", N + 1));
        } else {
            s.push_str("    idx(i) = i\n");
        }
        s.push_str("  end do\n");
        // Scatter into x, gather from y, over a seeded column range.
        s.push_str(&format!("  do j = {lo}, {hi}\n    do i = 1, {N}\n"));
        if k.is_multiple_of(2) {
            s.push_str("      x(idx(i), j) = y(i, j) + 1.0\n");
        } else {
            s.push_str("      y(i, j) = x(idx(i), j) * 0.5\n");
        }
        s.push_str("    end do\n  end do\n");
        if common_gather {
            s.push_str(&format!(
                "  do i = 1, {N}\n    ci(i) = {} - i\n  end do\n",
                N + 1
            ));
            s.push_str(&format!(
                "  do i = 1, {N}\n    y(ci(i), {c}) = y(ci(i), {c}) + x(i, {c})\n  end do\n",
                c = 1 + rng.below(N as u64) as i64
            ));
        }
    } else {
        // Inner node: an affine update, then both children, the second with
        // the formals swapped so translation sees both orders.
        s.push_str(&format!(
            "  do j = {lo}, {hi}\n    do i = 1, {N}\n      y(i, j) = y(i, j) * 0.5\n    end do\n  end do\n"
        ));
        let (c1, c2) = (2 * k + 1, 2 * k + 2);
        s.push_str(&format!("  call d{c1}(x, y)\n"));
        if c2 < m {
            s.push_str(&format!("  call d{c2}(y, x)\n"));
        }
    }
    match defect {
        Defect::None => {}
        Defect::Affine => {
            // Reads w(N+1): every written element is read, one read is past
            // the end.
            s = s.replacen(
                "  integer i, j\n",
                &format!("  integer i, j\n  double precision w({N})\n"),
                1,
            );
            s.push_str(&format!(
                "  do i = 1, {N}\n    w(i) = y(i, 1)\n  end do\n  do i = 1, {N}\n    x(i, 1) = w(i) + w(i + 1)\n  end do\n"
            ));
        }
        Defect::Indexed => {
            // The index values run 2..N+1 against a 1..N array; the
            // plain `w(i)` read keeps every written element live.
            s = s.replacen(
                "  integer i, j\n",
                &format!("  integer i, j\n  integer jdx({N})\n  double precision w({N})\n"),
                1,
            );
            s.push_str(&format!(
                "  do i = 1, {N}\n    jdx(i) = i + 1\n  end do\n  do i = 1, {N}\n    w(i) = y(i, 2)\n  end do\n  do i = 1, {N}\n    x(i, 2) = w(jdx(i)) + w(i)\n  end do\n"
            ));
        }
    }
    s.push_str(&format!("end subroutine d{k}\n\n"));
    s
}

/// Lowers by one the upper bound of the first loop starting with `loop_head`
/// in the last procedure whose header starts with `header` — a
/// one-statement edit that changes that procedure's regions.
pub fn shrink_last_loop_bound(text: &str, header: &str, loop_head: &str) -> String {
    let Some(start) = text.rfind(&format!("\n{header}")).map(|i| i + 1) else {
        return text.to_string();
    };
    let mut out = String::with_capacity(text.len());
    out.push_str(&text[..start]);
    let mut done = false;
    for line in text[start..].split_inclusive('\n') {
        let trimmed = line.trim_start();
        if !done && trimmed.starts_with(loop_head) {
            // `do v = lo, hi[, step]`: rewrite `hi` as `hi - 1`.
            let body = line.trim_end_matches('\n');
            let parts: Vec<&str> = body.splitn(3, ',').collect();
            if parts.len() >= 2 {
                let hi = parts[1].trim();
                let mut new = format!("{}, {hi} - 1", parts[0]);
                if let Some(step) = parts.get(2) {
                    new.push(',');
                    new.push_str(step);
                }
                new.push('\n');
                out.push_str(&new);
                done = true;
                continue;
            }
        }
        out.push_str(line);
    }
    out
}

/// `flat_affine`: ROADMAP's synth2000 with the run's seed, plus its edit
/// (one loop bound in the last procedure).
pub fn flat_affine(procs: usize, seed: u64) -> Generated {
    let cfg = workloads::synthetic::SynthConfig {
        procedures: procs.saturating_sub(1).max(1),
        seed,
        ..Default::default()
    };
    let src = workloads::synthetic::generate(&cfg);
    let mut edit = src.clone();
    edit.text = shrink_last_loop_bound(&src.text, "subroutine work", "do ");
    Generated {
        key: AnswerKey {
            procedures: cfg.procedures + 1,
            entries: (0..cfg.procedures).map(|p| format!("work{p}")).collect(),
            ..AnswerKey::default()
        },
        sources: vec![src],
        edited: vec![edit],
    }
}
