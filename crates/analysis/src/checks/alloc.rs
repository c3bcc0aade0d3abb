//! `ASV-A001`: the static hot-path allocation lint.
//!
//! The counting-allocator tests prove the steady-state frame path does not
//! allocate — for the branches they execute.  This pass covers the rest:
//! it walks the call graph from the hot-path roots (`IsmState::step_with`,
//! every `FrameSink::deliver` impl, `SequenceGate::admit`,
//! `wire::validate_message`, the server's per-message `receive_message`)
//! and flags allocating constructs anywhere in
//! the reachable set, including error and cold branches no test drives.
//!
//! A finding is silenced by `// lint: alloc-ok(<reason>)` on the line or
//! in the comment block above it — the reason is the point: "pool miss,
//! amortized", "error path, already failing", "Arc refcount bump, no heap
//! alloc".

use super::CallGraph;
use crate::model::CallKind;
use crate::{AnalyzerConfig, Finding, Workspace};
use std::collections::HashMap;

/// Escape annotation.
const ALLOC_OK: &str = "lint: alloc-ok";

/// Std types whose constructors allocate (or are treated as allocating by
/// the contract: `Vec::new` is flagged so growth stays visible).
const ALLOC_TYPES: &[&str] = &[
    "Arc", "BTreeMap", "BTreeSet", "Box", "CString", "HashMap", "HashSet", "PathBuf", "Rc",
    "String", "Vec", "VecDeque",
];

/// Constructor names flagged on [`ALLOC_TYPES`].
const ALLOC_CTORS: &[&str] = &["clone", "from", "from_iter", "new", "with_capacity"];

/// Method names that produce owned heap data.
const ALLOC_METHODS: &[&str] = &["clone", "collect", "to_owned", "to_string", "to_vec"];

/// Allocating macros.
const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// Runs the allocation lint.
pub fn run(ws: &Workspace, config: &AnalyzerConfig) -> Vec<Finding> {
    let g = CallGraph::build(ws);

    // Seed the BFS with the configured roots, remembering which root
    // pulled each node in (for the finding message).
    let mut root_of: HashMap<usize, String> = HashMap::new();
    let mut queue: Vec<usize> = Vec::new();
    for (node, &(fi, _)) in g.nodes.iter().enumerate() {
        let def = g.def(ws, node);
        for spec in &config.alloc_roots {
            if def.name != spec.fn_name {
                continue;
            }
            if let Some(t) = spec.type_name {
                if def.impl_type.as_deref() != Some(t) {
                    continue;
                }
            }
            if let Some(t) = spec.trait_name {
                if def.impl_trait.as_deref() != Some(t) {
                    continue;
                }
            }
            if let Some(sfx) = spec.file_suffix {
                if !ws.files[fi].rel.ends_with(sfx) {
                    continue;
                }
            }
            root_of.entry(node).or_insert_with(|| def.qual.clone());
            queue.push(node);
        }
    }

    let mut head = 0;
    while head < queue.len() {
        let node = queue[head];
        head += 1;
        let root = root_of[&node].clone();
        for call in &g.def(ws, node).calls {
            for target in g.resolve(call) {
                if let std::collections::hash_map::Entry::Vacant(e) = root_of.entry(target) {
                    e.insert(root.clone());
                    queue.push(target);
                }
            }
        }
    }

    let mut findings = Vec::new();
    for (&node, root) in &root_of {
        let (fi, _) = g.nodes[node];
        let sf = &ws.files[fi];
        let def = g.def(ws, node);
        for call in &def.calls {
            let construct = match call.kind {
                CallKind::Macro if ALLOC_MACROS.contains(&call.name.as_str()) => {
                    format!("{}!", call.name)
                }
                CallKind::Method if ALLOC_METHODS.contains(&call.name.as_str()) => {
                    format!(".{}()", call.name)
                }
                CallKind::Path => match &call.qual {
                    Some(q)
                        if ALLOC_TYPES.contains(&q.as_str())
                            && ALLOC_CTORS.contains(&call.name.as_str()) =>
                    {
                        format!("{q}::{}", call.name)
                    }
                    _ => continue,
                },
                _ => continue,
            };
            if sf.annotated_above(call.line, ALLOC_OK) {
                continue;
            }
            findings.push(Finding {
                code: "ASV-A001",
                file: sf.rel.clone(),
                line: call.line,
                message: format!(
                    "`{construct}` allocates in `{}`, reachable from hot-path root `{root}` \
                     (annotate with `// lint: alloc-ok(<reason>)` if intended)",
                    def.qual
                ),
            });
        }
    }
    findings
}
