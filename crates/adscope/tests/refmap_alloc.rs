//! Allocation budget of the referrer map, pinned with a counting global
//! allocator: over an extracted generated trace the per-⟨IP, UA⟩
//! `RefMap::process` pass allocates at most 0.25 times per record — the
//! maps growing, and the rare embedded URL. Keys and page roots are
//! handles on buffers the extracted objects already own.

use adscope::extract::extract;
use adscope::refmap::{RefMap, RefMapOptions};
use browsersim::{ActivityProfile, DriveConfig, Population, PopulationConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use webgen::{Ecosystem, EcosystemConfig};

struct CountingAlloc;

thread_local! {
    // `const` and without a destructor: reading it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn refmap_pass_allocates_a_quarter_per_record_at_most() {
    let eco = Ecosystem::generate(EcosystemConfig {
        publishers: 60,
        ad_companies: 8,
        trackers: 8,
        seed: 20_150_811,
        ..Default::default()
    });
    let mut pop = Population::generate(
        &eco,
        &PopulationConfig {
            households: 24,
            seed: 15,
            ..Default::default()
        },
    );
    let trace = browsersim::drive::drive(
        &eco,
        &mut pop,
        &ActivityProfile::default(),
        &DriveConfig::rbn2(1.0),
    )
    .trace;
    let (objects, _) = extract(&trace);
    assert!(objects.len() > 2_000, "{} records", objects.len());

    let mut per_user: HashMap<(u32, Option<&str>), RefMap> = HashMap::new();
    let mut allocations = 0u64;
    let mut with_page = 0usize;
    for obj in &objects {
        let map = per_user
            .entry((obj.client_ip, obj.user_agent.as_deref()))
            .or_insert_with(|| RefMap::new(RefMapOptions::default()));
        let before = ALLOCATIONS.with(Cell::get);
        let entry = map.process(obj);
        allocations += ALLOCATIONS.with(Cell::get) - before;
        with_page += usize::from(entry.ctx.page.is_some());
    }
    assert!(with_page * 2 > objects.len(), "the map resolves pages");
    let per_record = allocations as f64 / objects.len() as f64;
    assert!(
        per_record <= 0.25,
        "{allocations} allocations over {} records = {per_record:.3} per record",
        objects.len()
    );
}
