//! The dense-table [`IdCanon`] against a hash-map reference model.
//!
//! The model is the straightforward first-use renaming: a `HashMap` from
//! auxiliary ID to canonical number, cleared on reset. Random sequences of
//! `canon`, `reset`, `reset_with`, `set_locs` and `clone_from` over two
//! instances must return the same canonical numbers and renamed counts
//! from both implementations.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use scv_descriptor::IdCanon;
use std::collections::HashMap;

/// Location maps over `1..=8` (index 0 unused), the largest base drawn.
const LOCS: [[u32; 9]; 3] = [
    [0, 1, 2, 3, 4, 5, 6, 7, 8],
    [0, 2, 1, 4, 3, 6, 5, 8, 7],
    [0, 8, 7, 6, 5, 4, 3, 2, 1],
];

#[derive(Clone)]
struct Model {
    base: u32,
    map: HashMap<u32, u64>,
    locs: Option<usize>,
}

impl Model {
    fn new(base: u32) -> Self {
        Model {
            base,
            map: HashMap::new(),
            locs: None,
        }
    }

    fn canon(&mut self, id: u32) -> u64 {
        if id <= self.base {
            return match self.locs {
                Some(l) => LOCS[l][id as usize] as u64,
                None => id as u64,
            };
        }
        let next = self.base as u64 + 1 + self.map.len() as u64;
        *self.map.entry(id).or_insert(next)
    }
}

/// One operation on instance `which` (0 or 1); `arg` is an ID, a base or
/// a location-map index depending on `kind`.
fn apply(
    (kind, arg, which): (u8, u32, usize),
    dense: &mut [IdCanon<'static>; 2],
    model: &mut [Model; 2],
) -> Result<(), TestCaseError> {
    let (d, m) = (&mut dense[which], &mut model[which]);
    match kind {
        0..=5 => prop_assert_eq!(d.canon(arg), m.canon(arg), "canon({})", arg),
        6 => {
            d.reset();
            m.map.clear();
        }
        7 => {
            let base = arg % 9;
            d.reset_with(base);
            *m = Model::new(base);
        }
        8 => {
            let l = arg as usize % LOCS.len();
            d.set_locs(&LOCS[l]);
            m.locs = Some(l);
        }
        _ => {
            let (src, dst) = (which, 1 - which);
            let copy = dense[src].clone();
            dense[dst].clone_from(&copy);
            model[dst] = model[src].clone();
        }
    }
    prop_assert_eq!(dense[which].renamed(), model[which].map.len());
    prop_assert_eq!(dense[1 - which].renamed(), model[1 - which].map.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dense_idcanon_matches_hashmap_model(
        bases in (0u32..=8, 0u32..=8),
        ops in proptest::collection::vec((0u8..10, 1u32..40, 0usize..2), 1..200),
    ) {
        let mut dense = [IdCanon::new(bases.0), IdCanon::new(bases.1)];
        let mut model = [Model::new(bases.0), Model::new(bases.1)];
        for op in ops {
            apply(op, &mut dense, &mut model)?;
        }
    }
}
