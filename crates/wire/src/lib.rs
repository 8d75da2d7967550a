//! # beware-wire
//!
//! Wire formats used by the active-probing stack of the *Timeouts: Beware
//! Surprisingly High Delay* (IMC 2015) reproduction.
//!
//! The crate provides allocation-light encoders and zero-copy decoder views
//! for the four packet types the paper's probers emit and observe:
//!
//! * [`ipv4`] — the IPv4 header (with RFC 1071 header checksum),
//! * [`icmp`] — ICMP echo request/reply and the error messages the ISI
//!   survey records but excludes from latency analysis,
//! * [`udp`] — UDP datagrams used by the protocol-comparison experiment
//!   (Figure 10 of the paper),
//! * [`tcp`] — TCP ACK probes and the firewall-sourced RSTs the paper
//!   identifies by their constant TTL.
//!
//! [`payload`] implements the probe-payload embedding the authors
//! contributed to zmap (`module_icmp_echo_time.c`): the original
//! destination address and send timestamp are carried inside the echo
//! payload together with a validation tag, which lets a *stateless* scanner
//! compute RTTs and detect responses sourced from a different address than
//! the probed one (broadcast responders).
//!
//! [`cursor`] is the bounds-checked little-endian reader the dataset
//! codecs and the oracle protocol decode through.
//!
//! [`addr`] holds the IPv4 address-block utilities the analysis relies on
//! (/24 arithmetic, broadcast-looking last octets, block iteration).
//!
//! Design follows the smoltcp school: decoder types are thin views over a
//! byte slice that validate on construction, accessors never panic after
//! validation, and encoders write into caller-provided buffers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod checksum;
pub mod cursor;
pub mod error;
pub mod icmp;
pub mod ipv4;
pub mod payload;
pub mod tcp;
pub mod udp;

pub use addr::{Block24, BlockIter, LastOctetClass};
pub use checksum::{internet_checksum, Checksum};
pub use cursor::Cursor;
pub use error::WireError;
pub use icmp::{IcmpKind, IcmpPacket, IcmpRepr};
pub use ipv4::{Ipv4Header, Ipv4Packet, Protocol};
pub use payload::{ProbePayload, PAYLOAD_LEN};
pub use tcp::{TcpFlags, TcpPacket, TcpRepr};
pub use udp::{UdpPacket, UdpRepr};

/// Result alias used throughout the crate.
pub type Result<T> = core::result::Result<T, WireError>;
