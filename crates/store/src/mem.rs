//! The in-memory backend: a second in-memory fold of a node's rows,
//! nothing durable.

use crate::record::WalRecord;
use crate::state::DurableState;
use crate::StateStore;

/// A [`StateStore`] that folds records straight into memory: no I/O,
/// and nothing survives. Not free — every mutation updates a
/// [`DurableState`] map beside the live table it mirrors, and every
/// row it holds is held twice.
#[derive(Debug, Clone, Default)]
pub struct MemBackend {
    // owed: ROADMAP 8(a)
    state: DurableState,
}

impl MemBackend {
    /// An empty in-memory store.
    pub fn new() -> MemBackend {
        MemBackend::default()
    }
}

impl StateStore for MemBackend {
    fn kind(&self) -> &'static str {
        "mem"
    }

    fn apply(&mut self, rec: &WalRecord) {
        self.state.apply(rec);
    }

    fn state(&self) -> &DurableState {
        &self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_backend_folds_records() {
        let mut b = MemBackend::new();
        b.apply(&WalRecord::Identity { key: 1, incarnation: 2 });
        b.apply(&WalRecord::Register { target: 3, capacity: 4 });
        assert_eq!(b.state().identity, Some((1, 2)));
        assert_eq!(b.state().registrations.get(&3), Some(&4));
        assert_eq!(b.kind(), "mem");
    }
}
