//! Lazy nodes: unparsed delimiter subtrees plus the environment they must be
//! parsed under.
//!
//! Lazy parsing (paper §4) is what lets Mayans be imported anywhere and lets
//! a Mayan dispatch on the static type of one argument while another is not
//! yet parsed. A [`LazyNode`] stores the raw [`DelimTree`], the goal node
//! kind, and an *opaque environment snapshot* (`Rc<dyn Any>`) installed by
//! the compiler: the grammar version and Mayan-import scope current where the
//! tree appeared. Forcing is performed by the compiler (crate `maya-core`),
//! which knows how to interpret the snapshot.

use crate::{Node, NodeKind};
use maya_lexer::DelimTree;
use std::any::Any;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// The state of a lazy node.
pub enum LazyCell {
    /// Not yet parsed: the raw tree and the captured environment.
    Unforced {
        tree: DelimTree,
        env: Option<Rc<dyn Any>>,
    },
    /// Currently being forced (used for cycle detection).
    InProgress,
    /// Parsed. The node is immutable once forced, so the cell, the
    /// session's force cache and every reader share it.
    Forced(Rc<Node>),
}

impl fmt::Debug for LazyCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LazyCell::Unforced { tree, .. } => {
                write!(f, "Unforced({})", tree.delim.tree_name())
            }
            LazyCell::InProgress => f.write_str("InProgress"),
            LazyCell::Forced(n) => write!(f, "Forced({:?})", n.node_kind()),
        }
    }
}

/// A lazily parsed node. Cloning shares the cell, so forcing one clone
/// forces them all — exactly the sharing the paper's thunks have.
#[derive(Clone, Debug)]
pub struct LazyNode {
    pub goal: NodeKind,
    pub cell: Rc<RefCell<LazyCell>>,
}

impl LazyNode {
    /// Builds an unforced lazy node.
    pub fn new(goal: NodeKind, tree: DelimTree, env: Option<Rc<dyn Any>>) -> LazyNode {
        maya_telemetry::count(maya_telemetry::Counter::LazyNodesCreated);
        maya_telemetry::trace(maya_telemetry::TraceKind::MakeLazy, || {
            (goal.name().to_owned(), format!("{} deferred", tree.delim.tree_name()))
        });
        LazyNode {
            goal,
            cell: Rc::new(RefCell::new(LazyCell::Unforced { tree, env })),
        }
    }

    /// Builds an unforced lazy node for a session cache's template: no
    /// compilation created it, so it is neither counted nor traced (the
    /// nodes a compile instantiates from the template are).
    pub fn template(goal: NodeKind, tree: DelimTree, env: Option<Rc<dyn Any>>) -> LazyNode {
        LazyNode {
            goal,
            cell: Rc::new(RefCell::new(LazyCell::Unforced { tree, env })),
        }
    }

    /// Builds an already-forced lazy node (used when a template splices an
    /// eager value where lazy syntax is expected).
    pub fn forced(goal: NodeKind, node: Node) -> LazyNode {
        LazyNode {
            goal,
            cell: Rc::new(RefCell::new(LazyCell::Forced(Rc::new(node)))),
        }
    }

    /// Builds a lazy node already forced to a body a session cache kept
    /// from an earlier compilation of the same tokens. It counts as created
    /// and forced, as the cold node it stands for would, but emits no trace
    /// event: nothing was deferred or parsed.
    pub fn replayed(goal: NodeKind, node: Rc<Node>) -> LazyNode {
        maya_telemetry::count(maya_telemetry::Counter::LazyNodesCreated);
        maya_telemetry::count(maya_telemetry::Counter::LazyNodesForced);
        LazyNode {
            goal,
            cell: Rc::new(RefCell::new(LazyCell::Forced(node))),
        }
    }

    /// True if the node has been parsed.
    pub fn is_forced(&self) -> bool {
        matches!(*self.cell.borrow(), LazyCell::Forced(_))
    }

    /// The raw delimiter tree, if not yet forced (peek without forcing).
    pub fn unforced_tree(&self) -> Option<DelimTree> {
        match &*self.cell.borrow() {
            LazyCell::Unforced { tree, .. } => Some(tree.clone()),
            _ => None,
        }
    }

    /// The parsed node, if forced: a shared handle, not a copy.
    pub fn forced_node(&self) -> Option<Rc<Node>> {
        match &*self.cell.borrow() {
            LazyCell::Forced(n) => Some(n.clone()),
            _ => None,
        }
    }

    /// Takes the unforced payload, marking the cell in-progress.
    ///
    /// Returns `None` when already forced or in progress. The caller must
    /// follow up with [`LazyNode::fulfill`].
    pub fn begin_force(&self) -> Option<(DelimTree, Option<Rc<dyn Any>>)> {
        let mut cell = self.cell.borrow_mut();
        match &*cell {
            LazyCell::Unforced { .. } => {
                let prev = std::mem::replace(&mut *cell, LazyCell::InProgress);
                match prev {
                    LazyCell::Unforced { tree, env } => Some((tree, env)),
                    _ => unreachable!(),
                }
            }
            _ => None,
        }
    }

    /// Stores the parse result.
    ///
    /// # Panics
    ///
    /// Panics if the cell is not in progress.
    pub fn fulfill(&self, node: Rc<Node>) {
        let mut cell = self.cell.borrow_mut();
        assert!(
            matches!(*cell, LazyCell::InProgress),
            "fulfill on a lazy node that is not being forced"
        );
        maya_telemetry::count(maya_telemetry::Counter::LazyNodesForced);
        *cell = LazyCell::Forced(node);
    }

    /// Restores the unforced state after a failed force attempt.
    pub fn abandon(&self, tree: DelimTree, env: Option<Rc<dyn Any>>) {
        let mut cell = self.cell.borrow_mut();
        *cell = LazyCell::Unforced { tree, env };
    }
}

impl PartialEq for LazyNode {
    fn eq(&self, other: &LazyNode) -> bool {
        Rc::ptr_eq(&self.cell, &other.cell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maya_lexer::Delim;

    fn dummy_tree() -> DelimTree {
        DelimTree::synth(Delim::Brace, vec![])
    }

    #[test]
    fn force_protocol() {
        let lazy = LazyNode::new(NodeKind::BlockStmts, dummy_tree(), None);
        assert!(!lazy.is_forced());
        let (tree, env) = lazy.begin_force().expect("unforced");
        assert!(env.is_none());
        assert!(lazy.begin_force().is_none(), "reentrant force blocked");
        assert_eq!(tree.delim, Delim::Brace);
        lazy.fulfill(Rc::new(Node::Unit));
        assert!(lazy.is_forced());
        assert_eq!(lazy.forced_node().as_deref(), Some(&Node::Unit));
        assert!(lazy.begin_force().is_none());
    }

    #[test]
    fn clones_share_the_cell() {
        let lazy = LazyNode::new(NodeKind::BlockStmts, dummy_tree(), None);
        let clone = lazy.clone();
        let (t, e) = lazy.begin_force().unwrap();
        lazy.fulfill(Rc::new(Node::Unit));
        let _ = (t, e);
        assert!(clone.is_forced());
        assert_eq!(lazy, clone);
    }

    #[test]
    fn abandon_restores() {
        let lazy = LazyNode::new(NodeKind::BlockStmts, dummy_tree(), None);
        let (tree, env) = lazy.begin_force().unwrap();
        lazy.abandon(tree, env);
        assert!(lazy.begin_force().is_some());
    }

    #[test]
    fn pre_forced() {
        let lazy = LazyNode::forced(NodeKind::BlockStmts, Node::Unit);
        assert!(lazy.is_forced());
    }
}
