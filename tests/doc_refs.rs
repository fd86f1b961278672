//! The docs point only at what exists. Every file a doc names (`*.rs`,
//! `*.toml`, `*.json`, `*.yml`, matched by path suffix outside `target/`
//! and `vendor/`) is in the repo, every `file:N` line is within that
//! file, every `ttsnn_<crate>::…::<name>` is an item defined in
//! `crates/<crate>/src`, and every backticked `Type::item` names a type and
//! an item defined under `crates/*/src`. A deleted file or item fails here,
//! not in a reader's hands.

use std::collections::HashMap;
use std::fs;
use std::path::Path;

/// The docs checked, relative to the repo root.
const DOCS: [&str; 3] = ["ARCHITECTURE.md", "README.md", ".claude/skills/verify/SKILL.md"];

/// What makes a token a file name.
const EXTENSIONS: [&str; 4] = [".rs", ".toml", ".json", ".yml"];

/// The std types the docs name as `Type::item`, which no crate defines.
const STD_TYPES: [&str; 4] = ["Condvar", "Duration", "Instant", "Iterator"];

/// Keywords an item's name follows where it is defined.
const DEFINERS: [&str; 11] = [
    "fn",
    "struct",
    "enum",
    "trait",
    "type",
    "const",
    "static",
    "mod",
    "union",
    "as",
    "macro_rules",
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &str) -> String {
    fs::read_to_string(root().join(path)).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Every file under `dir`, `/`-separated and relative to the root, outside
/// build output, `vendor/` and `.git/`.
fn files(dir: &Path, out: &mut Vec<String>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy();
        if path.is_dir() {
            if !matches!(&*name, "target" | "vendor" | ".git" | ".bench_build") {
                files(&path, out);
            }
        } else {
            let rel = path.strip_prefix(root()).unwrap();
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
}

/// The runs of `is_char` characters in `text`, each with the character
/// before it and the text after it.
fn runs(text: &str, is_char: impl Fn(char) -> bool) -> Vec<(char, &str, &str)> {
    let mut out = Vec::new();
    let mut at = 0;
    while let Some(start) = text[at..].find(&is_char).map(|i| at + i) {
        let end = text[start..].find(|c| !is_char(c)).map_or(text.len(), |i| start + i);
        let before = text[..start].chars().last().unwrap_or(' ');
        out.push((before, &text[start..end], &text[end..]));
        at = end;
    }
    out
}

/// The line a `:N` (or `:N–M`) suffix names, the last of a range.
fn line_suffix(after: &str) -> Option<usize> {
    let digits = |s: &str| s.find(|c: char| !c.is_ascii_digit()).map_or(s.len(), |i| i);
    let rest = after.strip_prefix(':')?;
    let first: usize = rest[..digits(rest)].parse().ok()?;
    let last = rest[digits(rest)..]
        .strip_prefix(['–', '-'])
        .and_then(|r| r[..digits(r)].parse().ok())
        .unwrap_or(first);
    Some(first.max(last))
}

/// The file names in a doc, each with the line its `:N` suffix names.
/// Glob and template patterns (`BENCH_*.json`, `{a,b}.rs`, `<name>.json`)
/// name no one file and are skipped.
fn path_refs(text: &str) -> Vec<(&str, Option<usize>)> {
    let is_path = |c: char| c.is_ascii_alphanumeric() || "_./-".contains(c);
    runs(text, is_path)
        .into_iter()
        .filter(|&(before, _, after)| {
            !"*}>".contains(before) && !after.starts_with(['*', '{', '<'])
        })
        .filter_map(|(_, token, after)| {
            let token = token.trim_end_matches('.');
            let token = token.strip_prefix("./").unwrap_or(token);
            let file = token.rsplit('/').next().unwrap();
            EXTENSIONS
                .iter()
                .any(|ext| file.len() > ext.len() && file.ends_with(ext))
                .then(|| (token, line_suffix(after)))
        })
        .collect()
}

/// The `(crate, name)` pairs of every `ttsnn_<crate>::…::<name>` in a doc;
/// `ttsnn_<crate>::…::{a, b}` names each of `a` and `b`.
fn item_refs(text: &str) -> Vec<(&str, &str)> {
    let is_path = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == ':';
    let mut out = Vec::new();
    for (before, token, after) in runs(text, is_path) {
        let Some(path) = token.strip_prefix("ttsnn_") else { continue };
        if before.is_ascii_alphanumeric() || before == '_' || !path.contains("::") {
            continue;
        }
        let krate = &path[..path.find("::").unwrap()];
        let last = path.rsplit("::").next().unwrap();
        if !last.is_empty() {
            out.push((krate, last));
        } else if let Some(list) = after.strip_prefix('{').and_then(|a| a.split('}').next()) {
            out.extend(
                list.split(',').map(|name| (krate, name.rsplit("::").next().unwrap().trim())),
            );
        }
    }
    out
}

/// The `(Type, item)` pairs of every `Type::item` inside a doc's backticks:
/// a path segment that starts with a capital letter, and the one after it.
fn type_item_refs(text: &str) -> Vec<(&str, &str)> {
    let is_path = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == ':';
    let mut out = Vec::new();
    for code in text.split('`').skip(1).step_by(2) {
        for (before, token, _) in runs(code, is_path) {
            if before.is_ascii_alphanumeric() || before == '_' {
                continue;
            }
            let segments: Vec<&str> = token.split("::").collect();
            for pair in segments.windows(2) {
                let (ty, item) = (pair[0], pair[1]);
                if ty.starts_with(|c: char| c.is_ascii_uppercase()) && !item.is_empty() {
                    out.push((ty, item));
                }
            }
        }
    }
    out
}

/// Whether `src` defines `name`: after an item keyword, as a field, or as
/// an enum variant or a re-exported name at the start of a line.
fn defines(src: &str, name: &str) -> bool {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    src.lines().any(|line| {
        let words: Vec<&str> =
            line.split(|c: char| !is_ident(c)).filter(|w| !w.is_empty()).collect();
        if words.windows(2).any(|w| w[1] == name && DEFINERS.contains(&w[0])) {
            return true;
        }
        let item = line.trim_start();
        let item = ["pub(crate) ", "pub(super) ", "pub "]
            .iter()
            .find_map(|vis| item.strip_prefix(vis))
            .unwrap_or(item);
        item.strip_prefix(name).is_some_and(|rest| {
            (rest.starts_with(':') && !rest.starts_with("::"))
                || rest.starts_with([',', '(', ' ', '}'])
                || rest.is_empty()
        })
    })
}

/// Every `.rs` file under `dir`, concatenated.
fn rust_source(dir: &Path) -> String {
    let mut paths = Vec::new();
    files(dir, &mut paths);
    paths.iter().filter(|p| p.ends_with(".rs")).map(|p| read(p)).collect()
}

/// Every `.rs` file under `crates/<krate>/src`, concatenated.
fn crate_source(krate: &str) -> Option<String> {
    let dir = root().join("crates").join(krate).join("src");
    dir.is_dir().then(|| rust_source(&dir))
}

#[test]
fn doc_file_names_and_lines_exist() {
    let mut tree = Vec::new();
    files(root(), &mut tree);
    let mut missing = Vec::new();
    for doc in DOCS {
        for (token, line) in path_refs(&read(doc)) {
            let hits: Vec<usize> = tree
                .iter()
                .filter(|f| *f == token || f.ends_with(&format!("/{token}")))
                .map(|f| read(f).lines().count())
                .collect();
            if hits.is_empty() {
                missing.push(format!("{doc}: `{token}` names no file"));
            } else if let Some(n) = line.filter(|&n| hits.iter().all(|&len| n > len)) {
                missing.push(format!("{doc}: `{token}:{n}` is past the end of the file"));
            }
        }
    }
    assert!(missing.is_empty(), "{}", missing.join("\n"));
}

#[test]
fn doc_crate_paths_name_defined_items() {
    let mut sources: HashMap<String, Option<String>> = HashMap::new();
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = read(doc);
        for (krate, name) in item_refs(&text) {
            let src = sources.entry(krate.to_string()).or_insert_with(|| crate_source(krate));
            match src {
                None => missing.push(format!("{doc}: `ttsnn_{krate}` is no crate")),
                Some(src) if !defines(src, name) => {
                    missing.push(format!("{doc}: `ttsnn_{krate}::…::{name}` is defined nowhere"))
                }
                Some(_) => {}
            }
        }
    }
    assert!(missing.is_empty(), "{}", missing.join("\n"));
}

#[test]
fn doc_type_items_name_defined_items() {
    let mut src = String::new();
    for krate in fs::read_dir(root().join("crates")).unwrap() {
        let dir = krate.unwrap().path().join("src");
        if dir.is_dir() {
            src.push_str(&rust_source(&dir));
        }
    }
    let mut missing = Vec::new();
    for doc in DOCS {
        for (ty, item) in type_item_refs(&read(doc)) {
            if STD_TYPES.contains(&ty) {
                continue;
            }
            for name in [ty, item] {
                if !defines(&src, name) {
                    missing.push(format!("{doc}: `{ty}::{item}`: `{name}` is defined nowhere"));
                }
            }
        }
    }
    assert!(missing.is_empty(), "{}", missing.join("\n"));
}
