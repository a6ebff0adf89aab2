//! Output checks whose expected answers do not come from the analyzer
//! under test: the generator's answer key and the WHIRL interpreter.

use crate::gen::{AnswerKey, Rng};
use araa::Analysis;
use lint::{LintReport, Rule};
use std::collections::BTreeSet;

/// Failed output checks, with one line of detail each.
#[derive(Default)]
pub struct Wrong {
    pub notes: Vec<String>,
}

impl Wrong {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.notes.push(what());
        }
    }

    pub fn count(&self) -> usize {
        self.notes.len()
    }
}

/// The edit variant must differ from the original in exactly one file.
pub fn one_file_edit(
    name: &str,
    original: &[workloads::GenSource],
    edited: &[workloads::GenSource],
    wrong: &mut Wrong,
) {
    let changed = original.iter().zip(edited).filter(|(a, b)| a != b).count();
    wrong.check(changed == 1 && original.len() == edited.len(), || {
        format!("{name}: the edit changes {changed} file(s), expected one")
    });
}

/// Check (b): every seeded defect gets `OOB-01`, every COMMON-index
/// gather gets `NAF-06`, nothing else is flagged, and the procedure count
/// is as generated.
pub fn lint_against_key(
    report: &LintReport,
    procedures: usize,
    key: &AnswerKey,
    wrong: &mut Wrong,
) {
    wrong.check(procedures == key.procedures, || {
        format!("procedure count {procedures}, generated {}", key.procedures)
    });
    let flagged = |rule: Rule| -> BTreeSet<&str> {
        report
            .findings
            .iter()
            .filter(|f| f.rule == rule)
            .map(|f| f.proc.as_str())
            .collect()
    };
    let oob = flagged(Rule::Oob01);
    let naf = flagged(Rule::Naf06);
    for d in &key.defects {
        wrong.check(oob.contains(d.as_str()), || {
            format!("seeded defect in `{d}` not reported as OOB-01")
        });
    }
    for g in &key.gaps {
        wrong.check(naf.contains(g.as_str()), || {
            format!("COMMON-index gather in `{g}` not reported as NAF-06")
        });
    }
    for f in &report.findings {
        let expected =
            key.defects.contains(&f.proc) || (f.rule == Rule::Naf06 && key.gaps.contains(&f.proc));
        wrong.check(expected, || {
            format!("unexpected finding on a clean procedure: {f}")
        });
    }
}

/// Check (a): run a seeded sample of entry points in the interpreter and
/// require every dynamic access to lie inside the static summary.
pub fn dynamic_oracle(
    a: &Analysis,
    key: &AnswerKey,
    seed: u64,
    samples: usize,
    wrong: &mut Wrong,
) -> usize {
    let mut rng = Rng::new(seed ^ 0x0dd_c0de);
    let mut pool: Vec<&String> = key.entries.iter().collect();
    let mut ran = 0;
    while ran < samples && !pool.is_empty() {
        let entry = pool.swap_remove(rng.below(pool.len() as u64) as usize);
        ran += 1;
        match araa::dynamic::run_dynamic(&a.program, entry, whirl::interp::Limits::default()) {
            Ok(dynamic) => {
                let violations =
                    araa::dynamic::validate_against_static(&a.program, &a.ipa, &dynamic);
                wrong.check(violations.is_empty(), || {
                    format!(
                        "`{entry}`: {} dynamic access(es) outside the static regions: {}",
                        violations.len(),
                        violations[0].detail
                    )
                });
                wrong.check(dynamic.total_accesses > 0, || {
                    format!("`{entry}` touched no array element")
                });
            }
            Err(e) => wrong.check(false, || format!("interpreting `{entry}` failed: {e}")),
        }
    }
    wrong.check(ran > 0, || "no entry point to interpret".to_string());
    ran
}
