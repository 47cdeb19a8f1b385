//! Property-based tests over the core data structures and security
//! invariants.
//!
//! The build environment is offline, so instead of `proptest` these use a
//! small deterministic xorshift generator: each property runs 128 randomized
//! cases from a fixed seed, which keeps failures reproducible.

use shill::cap::{CapPrivs, Priv, PrivSet, ALL_PRIVS};
use shill::vfs::{Filesystem, Gid, Mode, Uid};

const CASES: usize = 128;

/// Deterministic xorshift64* generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform value in `[0, bound)`.
    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    fn arb_priv(&mut self) -> Priv {
        ALL_PRIVS[self.below(ALL_PRIVS.len())]
    }

    fn arb_privset(&mut self) -> PrivSet {
        let n = self.below(12);
        let privs: Vec<Priv> = (0..n).map(|_| self.arb_priv()).collect();
        PrivSet::of(&privs)
    }

    fn arb_capprivs(&mut self) -> CapPrivs {
        let mut c = CapPrivs::of(self.arb_privset());
        for _ in 0..self.below(3) {
            let p = self.arb_priv();
            if p.derives() {
                let s = self.arb_privset();
                c = c.with_modifier(p, CapPrivs::of(s));
            }
        }
        c
    }

    /// A lowercase name of 1..=max_len characters.
    fn arb_name(&mut self, max_len: usize) -> String {
        let len = 1 + self.below(max_len);
        (0..len)
            .map(|_| (b'a' + self.below(26) as u8) as char)
            .collect()
    }
}

// --- PrivSet lattice laws ---------------------------------------------------

#[test]
fn privset_union_is_commutative_and_monotone() {
    let mut rng = Rng::new(1);
    for _ in 0..CASES {
        let (a, b) = (rng.arb_privset(), rng.arb_privset());
        assert_eq!(a.union(b), b.union(a));
        assert!(a.is_subset(&a.union(b)));
        assert!(b.is_subset(&a.union(b)));
    }
}

#[test]
fn privset_intersection_dual() {
    let mut rng = Rng::new(2);
    for _ in 0..CASES {
        let (a, b) = (rng.arb_privset(), rng.arb_privset());
        assert_eq!(a.intersection(b), b.intersection(a));
        assert!(a.intersection(b).is_subset(&a));
        assert!(a.intersection(b).is_subset(&b));
        // Absorption: a ∩ (a ∪ b) = a
        assert_eq!(a.intersection(a.union(b)), a);
    }
}

#[test]
fn privset_subset_is_partial_order() {
    let mut rng = Rng::new(3);
    for _ in 0..CASES {
        let (a, b, c) = (rng.arb_privset(), rng.arb_privset(), rng.arb_privset());
        assert!(a.is_subset(&a));
        if a.is_subset(&b) && b.is_subset(&a) {
            assert_eq!(a, b);
        }
        if a.is_subset(&b) && b.is_subset(&c) {
            assert!(a.is_subset(&c));
        }
    }
}

#[test]
fn privset_roundtrips_through_names() {
    let mut rng = Rng::new(4);
    for _ in 0..CASES {
        let a = rng.arb_privset();
        let names: Vec<&str> = a.iter().map(|p| p.name()).collect();
        let parsed: PrivSet = names.iter().map(|n| Priv::parse(n).unwrap()).collect();
        assert_eq!(a, parsed);
    }
}

// --- CapPrivs: subset & conflicts -------------------------------------------

#[test]
fn capprivs_subset_reflexive() {
    let mut rng = Rng::new(5);
    for _ in 0..CASES {
        let a = rng.arb_capprivs();
        assert!(a.is_subset(&a));
    }
}

#[test]
fn capprivs_conflict_is_symmetric() {
    let mut rng = Rng::new(6);
    for _ in 0..CASES {
        let (a, b) = (rng.arb_capprivs(), rng.arb_capprivs());
        assert_eq!(a.conflicts_with(&b), b.conflicts_with(&a));
        // A capability never conflicts with itself.
        assert!(!a.conflicts_with(&a));
    }
}

#[test]
fn capprivs_full_is_top() {
    let mut rng = Rng::new(7);
    for _ in 0..CASES {
        let a = CapPrivs::of(rng.arb_privset());
        assert!(a.is_subset(&CapPrivs::full()));
        assert!(CapPrivs::none().is_subset(&a));
    }
}

// --- contract printer/parser roundtrip --------------------------------------

#[test]
fn capability_contract_roundtrip() {
    use shill::core::{parse_contract, ContractExpr};
    let mut rng = Rng::new(8);
    for _ in 0..CASES {
        let privs = rng.arb_capprivs();
        let c = ContractExpr::Dir(privs);
        let printed = shill::core::ast::contract_to_string(&c);
        let reparsed = parse_contract(&printed).expect("reparse");
        assert_eq!(c, reparsed, "printed form: {printed}");
    }
}

#[test]
fn or_contract_roundtrip() {
    use shill::core::{parse_contract, ContractExpr};
    let mut rng = Rng::new(9);
    for _ in 0..CASES {
        let (a, b) = (rng.arb_capprivs(), rng.arb_capprivs());
        let c = ContractExpr::Or(vec![ContractExpr::Dir(a), ContractExpr::File(b)]);
        let printed = shill::core::ast::contract_to_string(&c);
        let reparsed = parse_contract(&printed).expect("reparse");
        assert_eq!(c, reparsed);
    }
}

// --- filesystem model invariants --------------------------------------------

#[test]
fn fs_path_of_roundtrips() {
    let mut rng = Rng::new(10);
    for _ in 0..CASES {
        let depth = 1 + rng.below(5);
        let mut fs = Filesystem::new();
        let mut dir = fs.root();
        for i in 0..depth {
            // Ensure uniqueness per level by suffixing the depth.
            let name = format!("{}{i}", rng.arb_name(8));
            dir = fs
                .create_dir(dir, &name, Mode::DIR_DEFAULT, Uid::ROOT, Gid::WHEEL)
                .unwrap();
        }
        let leaf = fs
            .create_file(dir, "leaf", Mode::FILE_DEFAULT, Uid::ROOT, Gid::WHEEL)
            .unwrap();
        let path = fs.path_of(leaf).expect("path");
        assert_eq!(fs.resolve_abs(&path).unwrap(), leaf);
    }
}

#[test]
fn fs_link_counts_track_links() {
    let mut rng = Rng::new(11);
    for _ in 0..CASES {
        let extra_links = 1 + rng.below(5);
        let mut fs = Filesystem::new();
        let root = fs.root();
        let f = fs
            .create_file(root, "f", Mode::FILE_DEFAULT, Uid::ROOT, Gid::WHEEL)
            .unwrap();
        for i in 0..extra_links {
            fs.link(root, &format!("l{i}"), f).unwrap();
        }
        assert_eq!(fs.node(f).unwrap().nlink as usize, 1 + extra_links);
        for i in 0..extra_links {
            fs.unlink(root, &format!("l{i}")).unwrap();
        }
        assert_eq!(fs.node(f).unwrap().nlink, 1);
        fs.unlink(root, "f").unwrap();
        assert!(!fs.exists(f));
    }
}

#[test]
fn fs_write_read_agrees_with_model() {
    let mut rng = Rng::new(12);
    for _ in 0..CASES {
        let mut fs = Filesystem::new();
        let root = fs.root();
        let f = fs
            .create_file(root, "f", Mode::FILE_DEFAULT, Uid::ROOT, Gid::WHEEL)
            .unwrap();
        let mut model: Vec<u8> = Vec::new();
        let ops = 1 + rng.below(19);
        for _ in 0..ops {
            let off = rng.below(128) as u64;
            let data: Vec<u8> = (0..rng.below(32)).map(|_| rng.next() as u8).collect();
            fs.write(f, off, &data).unwrap();
            let off = off as usize;
            if off > model.len() {
                model.resize(off, 0);
            }
            let overlap = model.len().saturating_sub(off).min(data.len());
            model[off..off + overlap].copy_from_slice(&data[..overlap]);
            model.extend_from_slice(&data[overlap..]);
        }
        assert_eq!(fs.read(f, 0, model.len() + 10).unwrap(), model);
    }
}

// --- sandbox no-amplification invariant --------------------------------------

#[test]
fn propagation_never_amplifies() {
    use shill::kernel::{Kernel, MacPolicy, ObjId, Pid};
    use shill::sandbox::ShillPolicy;
    use shill::vfs::{Cred, NodeId};
    use std::sync::Arc;

    let mut rng = Rng::new(13);
    for _ in 0..CASES {
        let grant = rng.arb_capprivs();
        let hops = 1 + rng.below(4);
        let lookup_names: Vec<String> = (0..hops).map(|_| rng.arb_name(5)).collect();

        let policy = ShillPolicy::new();
        let mut k = Kernel::new();
        let pid = k.spawn_user(Cred::ROOT);
        let sid = policy.shill_init(&mut k, pid).unwrap();
        let dir = NodeId(100);
        let grant = Arc::new(grant);
        policy
            .shill_grant(&k, Pid(1), sid, ObjId::Vnode(dir), Arc::clone(&grant))
            .unwrap();
        policy.shill_enter(sid).unwrap();
        let ctx = k.process(pid).unwrap().mac_ctx();
        // Propagate through a chain of lookups; each object's entry must be
        // exactly what `derived` yields (or absent if lookup not granted) —
        // never a merge that exceeds it.
        let mut cur = dir;
        let mut expected = grant;
        for (i, name) in lookup_names.iter().enumerate() {
            let child = NodeId(200 + i as u64);
            policy.vnode_post_lookup(ctx, cur, name, child);
            if expected.allows(Priv::Lookup) {
                let want = expected.derived(Priv::Lookup);
                let got = policy.privs_on(sid, ObjId::Vnode(child)).expect("entry");
                assert_eq!(&*got, &*want);
                expected = want;
            } else {
                assert!(policy.privs_on(sid, ObjId::Vnode(child)).is_none());
                break;
            }
            cur = child;
        }
    }
}
