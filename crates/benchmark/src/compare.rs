//! `aqt-benchmark compare OLD.json NEW.json`: one row per workload ×
//! end-to-end metric, judged against the metric's bound.

use crate::json::Json;
use crate::stats::Summary;
use crate::{Better, EndToEnd, END_TO_END};

/// How NEW stands against OLD on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Within the bound either way.
    Same,
    /// Worsened by more than the bound.
    Worse,
    /// One side's quartile spread is wider than the bound, so the
    /// medians cannot be told apart at that resolution.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `new` against `old` on metric `m`.
pub fn verdict(m: &EndToEnd, old: &Summary, new: &Summary) -> Verdict {
    if old.spread() > m.bound || new.spread() > m.bound || old.median == 0.0 {
        return Verdict::Unresolved;
    }
    let change = (new.median - old.median) / old.median.abs();
    let worse_by = match m.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    if worse_by > m.bound {
        Verdict::Worse
    } else if worse_by < -m.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The comparison table and whether it passes (no `worse` row and no
/// rise in any workload's `failed_share`).
pub fn compare(old: &Json, new: &Json) -> Result<(String, bool), String> {
    let workloads = |doc: &Json| {
        doc.get("workloads")
            .and_then(Json::as_object)
            .map(<[_]>::to_vec)
            .ok_or("results file has no `workloads` object")
    };
    let (old_w, new_w) = (workloads(old)?, workloads(new)?);
    let mut out = format!(
        "{:<9} {:<12} {:>14} {:>24} {:>14} {:>24} {:>6} {:>8}  verdict\n",
        "workload",
        "metric",
        "old median",
        "old [q1, q3]",
        "new median",
        "new [q1, q3]",
        "bound",
        "change"
    );
    let mut pass = true;
    for (name, o) in &old_w {
        let Some((_, n)) = new_w.iter().find(|(k, _)| k == name) else {
            out.push_str(&format!("{name:<9} missing from NEW\n"));
            pass = false;
            continue;
        };
        for m in END_TO_END {
            let summary = |w: &Json| w.get("metrics")?.get(m.name).and_then(Summary::from_json);
            let (Some(so), Some(sn)) = (summary(o), summary(n)) else {
                continue;
            };
            let v = verdict(&m, &so, &sn);
            pass &= v != Verdict::Worse;
            out.push_str(&format!(
                "{name:<9} {:<12} {:>14.6} {:>24} {:>14.6} {:>24} {:>5.0}% {:>+7.2}%  {}\n",
                m.name,
                so.median,
                format!("[{:.6}, {:.6}]", so.q1, so.q3),
                sn.median,
                format!("[{:.6}, {:.6}]", sn.q1, sn.q3),
                100.0 * m.bound,
                100.0 * (sn.median - so.median) / so.median.abs(),
                v.as_str()
            ));
        }
        let share = |w: &Json| w.get("failed_share").and_then(Json::as_f64).unwrap_or(1.0);
        let (fo, fn_) = (share(o), share(n));
        let rose = fn_ > fo;
        pass &= !rose;
        out.push_str(&format!(
            "{name:<9} {:<12} {fo:>14} {:>24} {fn_:>14} {:>24} {:>6} {:>8}  {}\n",
            "failed_share",
            "",
            "",
            "any",
            "",
            if rose { "worse" } else { "same" }
        ));
    }
    Ok((out, pass))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, spread: f64) -> Summary {
        Summary {
            median,
            q1: median * (1.0 - spread / 2.0),
            q3: median * (1.0 + spread / 2.0),
            n: 7,
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let wall = END_TO_END[0];
        let rate = END_TO_END[1];
        let worse = 1.0 + 2.0 * wall.bound;
        let better = 1.0 - 2.0 * wall.bound;
        assert_eq!(
            verdict(&wall, &s(1.0, 0.01), &s(worse, 0.01)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&wall, &s(1.0, 0.01), &s(better, 0.01)),
            Verdict::Better
        );
        assert_eq!(verdict(&wall, &s(1.0, 0.01), &s(1.01, 0.01)), Verdict::Same);
        assert_eq!(
            verdict(&rate, &s(1.0, 0.01), &s(better, 0.01)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&wall, &s(1.0, 2.0 * wall.bound), &s(1.0, 0.01)),
            Verdict::Unresolved
        );
    }
}
