//! The path fingerprint stamped on every result set. Two result sets are
//! comparable only when the library took the same path in both: same SIMD
//! realization, pool mode, worker count, host parallelism and feature set,
//! on the same workload in the same trace mode. The git revision and the
//! seed are stamped too, but they are what an A/B comparison varies, so
//! they never block one.

use mf_telemetry::json::Json;

#[derive(Clone, Debug, PartialEq)]
pub struct Fingerprint {
    pub isa: String,
    pub pool: bool,
    pub mf_blas_threads: String,
    pub nproc: u64,
    pub features: String,
    pub workload: String,
    pub trace: bool,
    pub git_rev: String,
    pub seed: u64,
}

impl Fingerprint {
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("isa".into(), Json::str(&self.isa)),
            ("pool".into(), Json::Bool(self.pool)),
            ("mf_blas_threads".into(), Json::str(&self.mf_blas_threads)),
            ("nproc".into(), Json::u64(self.nproc)),
            ("features".into(), Json::str(&self.features)),
            ("workload".into(), Json::str(&self.workload)),
            ("trace".into(), Json::Bool(self.trace)),
            ("git_rev".into(), Json::str(&self.git_rev)),
            ("seed".into(), Json::u64(self.seed)),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Self, String> {
        let s = |k: &str| {
            j.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("fingerprint: missing string `{k}`"))
        };
        let b = |k: &str| {
            j.get(k)
                .and_then(Json::as_bool)
                .ok_or_else(|| format!("fingerprint: missing bool `{k}`"))
        };
        let n = |k: &str| {
            j.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("fingerprint: missing integer `{k}`"))
        };
        Ok(Fingerprint {
            isa: s("isa")?,
            pool: b("pool")?,
            mf_blas_threads: s("mf_blas_threads")?,
            nproc: n("nproc")?,
            features: s("features")?,
            workload: s("workload")?,
            trace: b("trace")?,
            git_rev: s("git_rev")?,
            seed: n("seed")?,
        })
    }

    /// The fields that differ between two fingerprints and forbid
    /// comparing their result sets (empty when comparable).
    pub fn mismatches(&self, other: &Fingerprint) -> Vec<&'static str> {
        let mut out = Vec::new();
        if self.isa != other.isa {
            out.push("isa");
        }
        if self.pool != other.pool {
            out.push("pool");
        }
        if self.mf_blas_threads != other.mf_blas_threads {
            out.push("mf_blas_threads");
        }
        if self.nproc != other.nproc {
            out.push("nproc");
        }
        if self.features != other.features {
            out.push("features");
        }
        if self.workload != other.workload {
            out.push("workload");
        }
        if self.trace != other.trace {
            out.push("trace");
        }
        out
    }
}

/// Compare two result-set files: refuse (`Err`) when their fingerprints
/// differ, otherwise one line per metric present in both with its change.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<String>, String> {
    let fp = |j: &Json| {
        j.get("fingerprint")
            .ok_or("result set has no fingerprint".to_string())
            .and_then(Fingerprint::from_json)
    };
    let (fa, fb) = (fp(a)?, fp(b)?);
    let diff = fa.mismatches(&fb);
    if !diff.is_empty() {
        return Err(format!(
            "refusing to compare: fingerprints differ in {}",
            diff.join(", ")
        ));
    }
    let metrics = |j: &Json| {
        j.get("metrics")
            .and_then(Json::as_obj)
            .unwrap_or(&[])
            .to_vec()
    };
    let mb = metrics(b);
    let mut lines = vec![format!(
        "{} seed {} rev {} -> seed {} rev {}",
        fa.workload, fa.seed, fa.git_rev, fb.seed, fb.git_rev
    )];
    for (name, va) in metrics(a) {
        let get = |m: &Json| m.get("value").and_then(Json::as_f64);
        let Some(vb) = mb
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, m)| get(m))
        else {
            continue;
        };
        let Some(va) = get(&va) else { continue };
        let rel = if va != 0.0 { (vb - va) / va.abs() } else { 0.0 };
        lines.push(format!(
            "{name:<40} {va:>14.6} {vb:>14.6} {:>+8.2}%",
            rel * 100.0
        ));
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp() -> Fingerprint {
        Fingerprint {
            isa: "avx2".into(),
            pool: true,
            mf_blas_threads: "1".into(),
            nproc: 2,
            features: "telemetry=off".into(),
            workload: "blas-n2".into(),
            trace: false,
            git_rev: "abc".into(),
            seed: 1,
        }
    }

    fn result(f: &Fingerprint, tps: f64) -> Json {
        Json::Obj(vec![
            ("fingerprint".into(), f.to_json()),
            (
                "metrics".into(),
                Json::Obj(vec![(
                    "tasks_per_s".into(),
                    Json::Obj(vec![("value".into(), Json::num(tps))]),
                )]),
            ),
        ])
    }

    #[test]
    fn round_trips_through_json() {
        let f = fp();
        let text = f.to_json().render();
        let back = Fingerprint::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn refuses_a_different_path() {
        let a = fp();
        let mut b = fp();
        b.isa = "scalar".into();
        b.mf_blas_threads = "2".into();
        let err = compare(&result(&a, 10.0), &result(&b, 20.0)).unwrap_err();
        assert!(err.contains("isa, mf_blas_threads"), "{err}");
        let mut c = fp();
        c.workload = "refine".into();
        assert!(compare(&result(&a, 10.0), &result(&c, 20.0)).is_err());
    }

    #[test]
    fn rev_and_seed_do_not_block_a_comparison() {
        let a = fp();
        let mut b = fp();
        b.git_rev = "def".into();
        b.seed = 2;
        let lines = compare(&result(&a, 10.0), &result(&b, 12.0)).unwrap();
        assert!(lines[1].starts_with("tasks_per_s"));
        assert!(lines[1].ends_with("+20.00%"), "{}", lines[1]);
    }
}
