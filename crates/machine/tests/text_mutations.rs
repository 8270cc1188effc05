//! Mutation property test for the textual machine format: mutated prints
//! of the four Imagine machines and the toy machine parse to a machine or
//! to a typed `ParseError`, never a panic or a hang. Whatever parses
//! prints back to a text that parses again.

use csched_machine::{imagine, text, toy, Architecture};
use proptest::prelude::*;

fn machines() -> Vec<Architecture> {
    vec![
        imagine::central(),
        imagine::clustered(2),
        imagine::clustered(4),
        imagine::distributed(),
        toy::motivating_example(),
    ]
}

/// Replaces the last run of digits in `token` with `value`.
fn swap_number(token: &str, value: &str) -> String {
    let end = token
        .rfind(|c: char| c.is_ascii_digit())
        .map_or(0, |i| i + 1);
    let start = token[..end]
        .rfind(|c: char| !c.is_ascii_digit())
        .map_or(0, |i| i + 1);
    format!("{}{value}{}", &token[..start], &token[end..])
}

/// Applies each `(kind, at)` edit to the whitespace-separated tokens of
/// `text`, keeping its lines: kinds 0–3 set the numeric token at or after
/// position `at` to 0, 1, 256 or 10⁶; kind 4 drops the token at `at`;
/// kind 5 duplicates it.
fn mutate(text: &str, edits: &[(u8, u32)]) -> String {
    let mut lines: Vec<Vec<String>> = text
        .lines()
        .map(|l| l.split_whitespace().map(String::from).collect())
        .collect();
    for &(kind, at) in edits {
        let spots: Vec<(usize, usize)> = lines
            .iter()
            .enumerate()
            .flat_map(|(i, l)| (0..l.len()).map(move |j| (i, j)))
            .collect();
        if spots.is_empty() {
            break;
        }
        let first = at as usize % spots.len();
        let (i, j) = spots[first];
        match kind % 6 {
            4 => {
                lines[i].remove(j);
            }
            5 => {
                let token = lines[i][j].clone();
                lines[i].insert(j, token);
            }
            k => {
                let value = ["0", "1", "256", "1000000"][usize::from(k)];
                let numeric = (0..spots.len())
                    .map(|d| spots[(first + d) % spots.len()])
                    .find(|&(i, j)| lines[i][j].contains(|c: char| c.is_ascii_digit()));
                if let Some((i, j)) = numeric {
                    lines[i][j] = swap_number(&lines[i][j], value);
                }
            }
        }
    }
    lines
        .iter()
        .map(|l| l.join(" "))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn mutations_edit_the_text() {
    assert_eq!(swap_number("RF3[12]", "0"), "RF3[0]");
    assert_eq!(swap_number("7", "256"), "256");
    let text = "rf R capacity 8\nop iadd latency 1";
    assert_eq!(
        mutate(text, &[(0, 3)]),
        "rf R capacity 0\nop iadd latency 1"
    );
    assert_eq!(
        mutate(text, &[(3, 4)]),
        "rf R capacity 8\nop iadd latency 1000000"
    );
    assert_eq!(mutate(text, &[(4, 0)]), "R capacity 8\nop iadd latency 1");
    assert_eq!(
        mutate(text, &[(5, 1)]),
        "rf R R capacity 8\nop iadd latency 1"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

    #[test]
    fn mutated_machine_texts_parse_or_fail_typed(
        machine in 0usize..5,
        edits in prop::collection::vec((any::<u8>(), any::<u32>()), 1..5),
    ) {
        let text = mutate(&text::print(&machines()[machine]), &edits);
        if let Ok(arch) = text::parse(&text) {
            let printed = text::print(&arch);
            prop_assert!(text::parse(&printed).is_ok(), "reprint fails to parse:\n{printed}");
        }
    }
}
