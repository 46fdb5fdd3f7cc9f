//! Reference verdicts and failed-operation counting.
//!
//! An operation fails when its definite verdict differs from the
//! reference (a *wrong* verdict, which also aborts the run), when it
//! returns Unknown where the reference is definite, or when it errors
//! or is refused. A definite verdict where the reference is Unknown is
//! accepted: a later change that resolves such a check is not failing.

use vrm_explore::Verdict;

/// A three-valued verdict, as observed or as referenced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tri {
    Pass,
    Fail,
    Unknown,
}

impl Tri {
    pub fn of(v: &Verdict) -> Tri {
        match v {
            Verdict::Pass => Tri::Pass,
            Verdict::Fail => Tri::Fail,
            Verdict::Unknown { .. } => Tri::Unknown,
        }
    }

    /// The `verdict` field of a `vrm-serve` reply.
    pub fn parse(s: &str) -> Option<Tri> {
        match s {
            "pass" => Some(Tri::Pass),
            "fail" => Some(Tri::Fail),
            "unknown" => Some(Tri::Unknown),
            _ => None,
        }
    }
}

/// How one operation compared with its reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Judgement {
    Ok,
    /// Unknown where the reference is definite.
    Unresolved,
    /// A definite verdict that contradicts a definite reference.
    Wrong,
}

pub fn judge(observed: Tri, reference: Tri) -> Judgement {
    match (observed, reference) {
        (_, Tri::Unknown) => Judgement::Ok,
        (Tri::Unknown, _) => Judgement::Unresolved,
        (o, r) if o == r => Judgement::Ok,
        _ => Judgement::Wrong,
    }
}

/// Operations attempted and failed, plus whether any verdict was wrong.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
}

impl Tally {
    /// Records one judged operation; returns `false` when its verdict
    /// was wrong and the run must stop.
    pub fn record(&mut self, j: Judgement) -> bool {
        self.attempted += 1;
        match j {
            Judgement::Ok => true,
            Judgement::Unresolved => {
                self.failed += 1;
                true
            }
            Judgement::Wrong => {
                self.failed += 1;
                self.wrong += 1;
                false
            }
        }
    }

    /// Records an operation that errored or was refused.
    pub fn error(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    /// Records an operation's outcome: its judgement, or `None` when it
    /// errored or was refused. Returns `false` when the run must stop.
    pub fn outcome(&mut self, j: Option<Judgement>) -> bool {
        match j {
            Some(j) => self.record(j),
            None => {
                self.error();
                true
            }
        }
    }

    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }

    /// Whether every verdict agreed with its reference.
    pub fn correct(&self) -> bool {
        self.wrong == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flipped_verdict_is_rejected() {
        assert_eq!(judge(Tri::Fail, Tri::Pass), Judgement::Wrong);
        assert_eq!(judge(Tri::Pass, Tri::Fail), Judgement::Wrong);
        let mut t = Tally::default();
        assert!(!t.record(judge(Tri::Fail, Tri::Pass)));
        assert!(!t.correct());
    }

    #[test]
    fn unknown_reference_accepts_any_verdict() {
        for o in [Tri::Pass, Tri::Fail, Tri::Unknown] {
            assert_eq!(judge(o, Tri::Unknown), Judgement::Ok);
        }
    }

    #[test]
    fn failed_operations_are_counted_against_attempts() {
        let mut t = Tally::default();
        assert!(t.record(judge(Tri::Pass, Tri::Pass)));
        assert!(t.record(judge(Tri::Unknown, Tri::Pass)));
        assert!(t.outcome(None));
        assert!(t.outcome(Some(judge(Tri::Pass, Tri::Unknown))));
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 2,
                wrong: 0
            }
        );
        assert!(t.correct());
        let mut sum = Tally::default();
        sum.absorb(&t);
        sum.absorb(&t);
        assert_eq!((sum.attempted, sum.failed), (8, 4));
    }

    #[test]
    fn reply_verdicts_parse() {
        assert_eq!(Tri::parse("pass"), Some(Tri::Pass));
        assert_eq!(Tri::parse("unknown"), Some(Tri::Unknown));
        assert_eq!(Tri::parse("PASS"), None);
        assert_eq!(Tri::of(&Verdict::Fail), Tri::Fail);
    }
}
