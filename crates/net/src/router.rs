//! Per-node router state: input virtual-channel buffers and output
//! channel allocation state.
//!
//! Routers are input-buffered wormhole switches. Each physical input link
//! carries [`DATELINE_VCS`](crate::routing::DATELINE_VCS) virtual channels
//! with private flit buffers; an additional single-VC input port receives
//! flits from the local node's injection channel. Output physical channels
//! are time-multiplexed among their virtual channels flit by flit; a
//! virtual channel, once allocated to a message's head, stays locked to
//! that message until its tail passes (wormhole flow control). Credits
//! track downstream buffer space per virtual channel.
//!
//! The routers hold only state; the cycle algorithm lives in
//! [`crate::fabric`], which owns all routers and the links between them.

use crate::message::Flit;
use std::collections::VecDeque;

/// Reference to a virtual channel `(port, vc)` within one router. The
/// fields are `u16` so the per-VC route and lock tables stay at 6 bytes
/// per `Option` entry; [`check_router_shape`] guarantees every port and
/// VC fits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct VcRef {
    pub port: u16,
    pub vc: u16,
}

/// An input virtual channel.
pub(crate) type InputRef = VcRef;

/// An output virtual channel.
pub(crate) type OutputRef = VcRef;

impl VcRef {
    /// Narrows `(port, vc)`; in range by [`check_router_shape`].
    #[inline]
    pub(crate) fn new(port: usize, vc: usize) -> Self {
        debug_assert!(port < usize::from(u16::MAX) && vc < usize::from(u16::MAX));
        Self {
            port: port as u16,
            vc: vc as u16,
        }
    }

    #[inline]
    pub(crate) fn port(self) -> usize {
        usize::from(self.port)
    }

    #[inline]
    pub(crate) fn vc(self) -> usize {
        usize::from(self.vc)
    }
}

/// Asserts that a router with `link_ports` link ports (plus the local
/// port), `link_vcs` VCs per port and `link_credits`-flit VC buffers fits
/// the narrow per-VC state — [`VcRef`] fields and `u32` credit
/// counters — and returns the credit count as stored. `u16::MAX`
/// stays free as the absent-link sentinel, `u32::MAX` as
/// [`INFINITE_CREDITS`].
pub(crate) fn check_router_shape(link_ports: usize, link_vcs: usize, link_credits: usize) -> u32 {
    assert!(
        link_ports < usize::from(u16::MAX) && link_vcs < usize::from(u16::MAX),
        "routers support fewer than {} ports and virtual channels per port",
        u16::MAX
    );
    u32::try_from(link_credits)
        .ok()
        .filter(|&credits| credits < INFINITE_CREDITS)
        .expect("buffer capacity exceeds the credit counter")
}

/// One input virtual channel: a flit FIFO plus the output assignment of
/// the message currently being forwarded from it.
#[derive(Debug, Default)]
pub(crate) struct VcBuffer {
    pub fifo: VecDeque<Flit>,
    /// Route of the message at the front, assigned when its head flit
    /// reaches the front and cleared when its tail departs.
    pub route: Option<OutputRef>,
}

/// One input port: a set of virtual-channel buffers fed by one physical
/// channel.
#[derive(Debug)]
pub(crate) struct InputPort {
    pub vcs: Vec<VcBuffer>,
}

impl InputPort {
    fn new(vc_count: usize) -> Self {
        Self {
            vcs: (0..vc_count).map(|_| VcBuffer::default()).collect(),
        }
    }
}

/// Credit sentinel for the ejection pseudo-channel, which the node drains
/// unconditionally.
pub(crate) const INFINITE_CREDITS: u32 = u32::MAX;

/// Per-output-virtual-channel allocation state.
#[derive(Debug)]
pub(crate) struct OutputVc {
    /// The input VC whose message currently owns this output VC.
    pub locked_by: Option<InputRef>,
    /// Free flit slots in the downstream buffer for this VC.
    pub credits: u32,
    /// Round-robin pointer for allocating this VC among competing input
    /// VCs (flattened input index).
    pub rr_input: usize,
}

/// One output port: per-VC allocation state plus the round-robin pointer
/// that multiplexes the physical channel among its VCs.
#[derive(Debug)]
pub(crate) struct OutputPort {
    pub vcs: Vec<OutputVc>,
    pub rr_vc: usize,
}

impl OutputPort {
    fn new(vc_count: usize, credits: u32) -> Self {
        Self {
            vcs: (0..vc_count)
                .map(|_| OutputVc {
                    locked_by: None,
                    credits,
                    rr_input: 0,
                })
                .collect(),
            rr_vc: 0,
        }
    }
}

/// A single router: input buffers and output allocation state.
#[derive(Debug)]
pub(crate) struct Router {
    pub inputs: Vec<InputPort>,
    pub outputs: Vec<OutputPort>,
}

impl Router {
    /// Builds a router with `link_ports` inter-router ports (a torus has
    /// `2*dims`) carrying `link_vcs` virtual channels each, plus one
    /// single-VC injection input and one single-VC ejection output.
    pub(crate) fn new(link_ports: usize, link_vcs: usize, link_credits: usize) -> Self {
        let link_credits = check_router_shape(link_ports, link_vcs, link_credits);
        let mut inputs: Vec<InputPort> =
            (0..link_ports).map(|_| InputPort::new(link_vcs)).collect();
        inputs.push(InputPort::new(1)); // injection input
        let mut outputs: Vec<OutputPort> = (0..link_ports)
            .map(|_| OutputPort::new(link_vcs, link_credits))
            .collect();
        outputs.push(OutputPort::new(1, INFINITE_CREDITS)); // ejection
        Self { inputs, outputs }
    }

    /// Total flits currently buffered in this router. The optimized
    /// engine tracks occupancy incrementally; this per-VC scan remains
    /// for the reference engine and tests.
    #[cfg_attr(not(any(test, feature = "reference-engine")), allow(dead_code))]
    pub(crate) fn buffered_flits(&self) -> usize {
        self.inputs
            .iter()
            .flat_map(|p| p.vcs.iter())
            .map(|vc| vc.fifo.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_port_layout() {
        let r = Router::new(4, 2, 8);
        assert_eq!(r.inputs.len(), 5); // 4 link + 1 injection
        assert_eq!(r.outputs.len(), 5); // 4 link + 1 ejection
        assert_eq!(r.inputs[0].vcs.len(), 2);
        assert_eq!(r.inputs[4].vcs.len(), 1);
        assert_eq!(r.outputs[4].vcs.len(), 1);
        assert_eq!(r.outputs[4].vcs[0].credits, INFINITE_CREDITS);
        assert_eq!(r.outputs[0].vcs[0].credits, 8);
    }

    #[test]
    fn new_router_is_empty() {
        let r = Router::new(4, 2, 8);
        assert_eq!(r.buffered_flits(), 0);
    }
}
