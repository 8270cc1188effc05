//! The command line and the flat JSON-line reader every csched-eval tool
//! shares, tested through the facade: flag lookup and the kernel and
//! architecture tables ([`csched::eval::cli`]), and the reader under the
//! journals and the service's `METRICS` line ([`csched::eval::jsonl`]).

use csched::core::trace::json_escape;
use csched::eval::cli::{self, Args, CliError, ARCH_NAMES};
use csched::eval::jsonl::{elements, field, members, num, num_field, str_field};
use csched::eval::telemetry::{MetricsSnapshot, Outcome, RequestSpan, Telemetry};
use proptest::prelude::*;

#[test]
fn values_numbers_and_positionals() {
    let args = Args::new(["FFT", "--jobs", "4", "--sim", "--out", "x.json", "central"]);
    assert!(args.has("--sim") && !args.has("--json"));
    assert_eq!(args.value("--out"), Ok(Some("x.json")));
    assert_eq!(args.num::<usize>("--jobs"), Ok(Some(4)));
    assert_eq!(args.num::<u64>("--seed"), Ok(None));
    assert_eq!(args.positional(&["--jobs", "--out"]), ["FFT", "central"]);
    assert_eq!(
        args.num::<u32>("--out").unwrap_err().to_string(),
        "--out: not a number: x.json"
    );
    assert_eq!(
        Args::new(["--seed"]).num::<u64>("--seed"),
        Err(CliError::MissingValue("--seed".into()))
    );
}

#[test]
fn repeated_flags_take_their_arity() {
    let args = Args::new([
        "--cell", "FFT", "central", "--table", "--cell", "DCT", "toy",
    ]);
    let cells = args.repeated("--cell", 2).unwrap();
    assert_eq!(cells, [&["FFT", "central"][..], &["DCT", "toy"][..]]);
    assert!(Args::new(["--cell", "FFT"]).repeated("--cell", 2).is_err());
}

#[test]
fn names_resolve_or_fail_typed() {
    for name in ARCH_NAMES.split('|') {
        assert!(cli::arch(name).is_ok(), "{name}");
    }
    assert_eq!(
        cli::arch("clustered").unwrap().name(),
        "imagine-clustered-2"
    );
    assert_eq!(
        cli::arch("bogus").unwrap_err(),
        CliError::UnknownArch("bogus".into())
    );
    assert_eq!(cli::kernel("fft").unwrap().kernel.name(), "FFT");
    assert!(matches!(cli::kernels("Merge,NOPE"), Err(CliError::UnknownKernel(k)) if k == "NOPE"));
}

#[test]
fn fields_are_found_at_any_depth_but_never_inside_strings() {
    let line = r#"{"detail":"\"ii\":9 {","serve":{"ii":3,"cache":{"n":[1,2]}},"ii":4}"#;
    assert_eq!(num_field(line, "ii"), Some(3));
    assert_eq!(field(line, "cache"), Some(r#"{"n":[1,2]}"#));
    assert_eq!(field(line, "n"), Some("[1,2]"));
    assert_eq!(str_field(line, "detail").as_deref(), Some("\"ii\":9 {"));
    assert_eq!(num_field(line, "missing"), None);
    assert_eq!(str_field(line, "ii"), None, "a number is not a string");
}

#[test]
fn numbers_read_their_leading_digits() {
    assert_eq!(num("42"), Some(42));
    assert_eq!(num("12x"), Some(12));
    assert_eq!(num("null"), None);
    assert_eq!(num("\"7\""), None);
}

#[test]
fn members_and_elements_walk_one_level() {
    let object = r#"{"a":1, "b}":{"c":[2,3]},"d":"e,f"}"#;
    let got = members(object);
    let names: Vec<&str> = got.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["a", "b}", "d"]);
    assert_eq!(got[1].1, r#"{"c":[2,3]}"#);
    assert_eq!(
        elements(r#"[[1,2], {"x":"]"},3]"#),
        ["[1,2]", r#"{"x":"]"}"#, "3"]
    );
    assert!(members("{}").is_empty());
    assert!(elements("[]").is_empty());
    assert!(members("[1]").is_empty());
}

#[test]
fn snapshot_reads_back_escaped_kernel_names() {
    let t = Telemetry::new(8);
    let names = ["a\"b", "back\\slash", "x}y"];
    for (i, name) in names.iter().enumerate() {
        let mut span = RequestSpan::new(i as u64 + 1, "SCHED");
        span.kernel = (*name).to_string();
        span.outcome = Outcome::Ok;
        span.total_us = 100 + i as u64;
        span.ii = 7;
        t.record(span);
    }
    let snap = MetricsSnapshot::parse(&t.metrics_json()).unwrap();
    assert_eq!(snap.spans.len(), names.len());
    for (i, (span, name)) in snap.spans.iter().zip(names).enumerate() {
        assert_eq!(span.kernel, name);
        assert_eq!(span.outcome, "ok");
        assert_eq!(
            (span.id, span.total_us, span.ii),
            (i as u64 + 1, 100 + i as u64, 7)
        );
    }
}

/// Strings of up to 12 characters, heavy in JSON structure and escapes.
fn tricky() -> impl Strategy<Value = String> {
    const ALPHABET: &[char] = &[
        'a', '0', ' ', '"', '\\', '{', '}', '[', ']', ',', ':', '\n', '\t', '\r', '\u{7}', 'ü',
    ];
    prop::collection::vec(0..ALPHABET.len(), 0..13)
        .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// A string member reads back exactly as written, and the member
    /// after it is still found.
    #[test]
    fn escaped_strings_round_trip(text in tricky(), after in any::<u64>()) {
        let line = format!("{{\"k\":\"{}\",\"after\":{after}}}", json_escape(&text));
        prop_assert_eq!(str_field(&line, "k"), Some(text), "{}", line);
        prop_assert_eq!(num_field(&line, "after"), Some(after), "{}", line);
    }

    /// Every prefix of a line (a journal's torn tail) reads a string
    /// member as absent or whole, never cut short.
    #[test]
    fn torn_lines_read_as_absent(text in tricky()) {
        let line = format!("{{\"key\":5,\"kernel\":\"{}\"}}", json_escape(&text));
        for (cut, _) in line.char_indices().skip(9) {
            let got = str_field(&line[..cut], "kernel");
            prop_assert!(got.is_none() || got.as_ref() == Some(&text), "{}", &line[..cut]);
            prop_assert_eq!(num_field(&line[..cut], "key"), Some(5));
        }
        prop_assert_eq!(field(r#"{"a":{"b":1"#, "a"), None);
    }
}
