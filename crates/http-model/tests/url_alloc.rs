//! Allocation budget of `Url`, pinned with a counting global allocator:
//! a clone allocates nothing, parsing a plain lowercase URL allocates
//! once, the build-then-copy paths at most twice, and a query rewritten
//! into a buffer the caller keeps once.
//!
//! The counter is per thread, so the tests of this binary may run side by
//! side.

use http_model::headers::{RequestHeaders, ResponseHeaders};
use http_model::{HttpTransaction, Method, Url};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

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

/// Allocations this thread makes while `f` runs.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

const PLAIN: &str =
    "http://ads.friendly025.example/banners/300x250/creative.gif?cb=12345678&ord=42";

#[test]
fn clone_allocates_nothing() {
    let url = Url::parse(PLAIN).unwrap();
    let (n, copies) = allocations_of(|| {
        let a = url.clone();
        let b = a.clone();
        (a.schemeless_shared(), b)
    });
    assert_eq!(
        n, 0,
        "Url::clone and the shared key are reference-count bumps"
    );
    drop(copies);
}

#[test]
fn parsing_a_plain_url_allocates_once() {
    for input in [
        PLAIN,
        "https://pub.example/",
        "http://pub.example/a/b.html",
        "//cdn.example/lib.js?v=3",
        "ws://h.example/socket?x=1??y",
    ] {
        let (n, url) = allocations_of(|| Url::parse(black_box(input)));
        assert_eq!(n, 1, "{input}");
        assert!(input.ends_with(url.unwrap().schemeless()));
    }
}

#[test]
fn accessors_allocate_nothing() {
    let url = Url::parse(PLAIN).unwrap();
    let mut out = String::with_capacity(PLAIN.len());
    let (n, ()) = allocations_of(|| {
        black_box((url.host(), url.path(), url.query(), url.filename()));
        black_box((url.schemeless(), url.extension_str()));
        black_box(url.query_pairs().count());
        url.write_into(&mut out);
    });
    assert_eq!(n, 0);
    assert_eq!(out, PLAIN);
}

#[test]
fn rebuilt_urls_allocate_twice_at_most() {
    // Anything that is not a slice of the input is assembled in a
    // `String` and copied into the shared buffer.
    for input in [
        "http://Ads.Example/x",
        "http://e.com:8080/x",
        "http://e.com/x#frag",
        "http://e.com/x?",
        "http://e.com",
        "http://user@e.com/x",
    ] {
        let (n, url) = allocations_of(|| Url::parse(black_box(input)));
        assert!(url.is_ok());
        assert!(n <= 2, "{input}: {n} allocations");
    }
    let tx = HttpTransaction {
        ts: 0.0,
        client_ip: 1,
        server_ip: 2,
        server_port: 80,
        method: Method::Get,
        request: RequestHeaders {
            host: "ads.example".into(),
            uri: "/pixel.gif?x=1".into(),
            referer: None,
            user_agent: None,
        },
        response: ResponseHeaders::default(),
        tcp_handshake_ms: 0.0,
        http_handshake_ms: 0.0,
    };
    let (n, url) = allocations_of(|| tx.url());
    assert!(
        n <= 2,
        "host + uri: one String, one shared buffer; made {n}"
    );
    assert_eq!(url.unwrap().as_string(), "http://ads.example/pixel.gif?x=1");
}

#[test]
fn a_query_rewritten_into_a_kept_buffer_allocates_once() {
    let mut scratch = String::new();
    for input in [PLAIN, "http://E.com:8080/x?cb=1&ord=2"] {
        let url = Url::parse(input).unwrap();
        let rewrite = |query: &str, out: &mut String| {
            out.push_str("cb=X&");
            out.push_str(query.rsplit('&').next().unwrap());
            true
        };
        // The first call grows the buffer; from then on only the copy's
        // own buffer is allocated.
        url.rewrite_query(&mut scratch, rewrite);
        let (n, copy) = allocations_of(|| url.rewrite_query(&mut scratch, rewrite));
        assert_eq!(n, 1, "{input}");
        let expected = format!("cb=X&{}", url.query().unwrap().rsplit('&').next().unwrap());
        assert_eq!(copy, Some(url.with_query(Some(expected))), "{input}");
        assert_eq!(url.rewrite_query(&mut scratch, |_, _| false), None);
    }
    let bare = Url::parse("http://e.com/x?").unwrap();
    assert_eq!(bare.rewrite_query(&mut scratch, |_, _| true), None);
}
