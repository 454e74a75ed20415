//! The length-prefixed binary wire protocol of the admission service.
//!
//! Every frame is `[u32 len LE][u8 tag][payload]` where `len` counts
//! the tag byte plus the payload. Frames are tiny (the largest decision
//! frame is 63 bytes), but the decoder enforces [`MAX_FRAME`] on the
//! declared length *before* any buffering decision, so a hostile
//! 4-byte header can never cause an over-allocation.
//!
//! Decoding is incremental and total: [`decode_request`] /
//! [`decode_response`] return `Ok(None)` while the buffer holds only a
//! frame prefix, `Ok(Some((frame, consumed)))` for a complete
//! well-formed frame, and a typed [`ProtoError`] for anything
//! malformed — never a panic, whatever the bytes. The property suite
//! (`tests/prop_proto.rs`) drives both decoders over adversarial,
//! truncated, and oversized streams.
//!
//! [`DecisionFrame`] is the **single encode path** for decisions: its
//! [`DecisionFrame::to_csv`] renders the exact `results/admission.csv`
//! row format, and both the `admit` bin (through the shard pool) and
//! the networked service produce their CSV through this one type — the
//! wire representation and the artifact cannot drift.

use nc_admit::{Decision, RejectReason};
use nc_core::num::Rat;

/// Hard cap on the declared frame length (tag + payload, bytes).
/// Checked before any allocation or buffering keyed on the length.
pub const MAX_FRAME: u32 = 64 << 10;

/// Typed decode failures. Incomplete input is *not* an error (the
/// decoders return `Ok(None)` for it); these are malformed frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// Declared length exceeds [`MAX_FRAME`] — rejected straight off
    /// the 4-byte header, before anything is reserved.
    Oversized {
        /// The declared length.
        len: u32,
    },
    /// Declared length is zero (a frame has at least its tag byte).
    ZeroLength,
    /// Unknown frame tag for this direction.
    UnknownTag(u8),
    /// Payload length does not match the tag's fixed layout.
    WrongLength {
        /// The frame tag.
        tag: u8,
        /// The declared payload length (tag byte excluded).
        len: u32,
    },
    /// An enum byte (event kind, outcome, option flag) is out of range.
    BadEnum {
        /// The frame tag.
        tag: u8,
        /// Byte offset of the bad field within the payload.
        offset: usize,
    },
    /// A rational is not in canonical wire form (`den > 0`, neither
    /// limb `i128::MIN`).
    BadRational,
    /// A time field decoded to a non-finite `f64`.
    NonFiniteTime,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Oversized { len } => {
                write!(f, "declared frame length {len} exceeds {MAX_FRAME}")
            }
            ProtoError::ZeroLength => write!(f, "zero-length frame"),
            ProtoError::UnknownTag(t) => write!(f, "unknown frame tag {t:#04x}"),
            ProtoError::WrongLength { tag, len } => {
                write!(
                    f,
                    "tag {tag:#04x}: payload length {len} does not match layout"
                )
            }
            ProtoError::BadEnum { tag, offset } => {
                write!(
                    f,
                    "tag {tag:#04x}: enum byte out of range at payload offset {offset}"
                )
            }
            ProtoError::BadRational => write!(f, "rational not in canonical wire form"),
            ProtoError::NonFiniteTime => write!(f, "non-finite time field"),
        }
    }
}

impl std::error::Error for ProtoError {}

// Request-direction tags.
const TAG_REQUEST: u8 = 0x01;
const TAG_RECONFIGURE: u8 = 0x02;
const TAG_WHATIF: u8 = 0x03;
const TAG_SHUTDOWN: u8 = 0x04;
// Response-direction tags.
const TAG_DECISION: u8 = 0x81;
const TAG_RECONFIGURED: u8 = 0x82;
const TAG_WHATIF_ANSWER: u8 = 0x83;

/// An admission request on the wire: one arrival or departure of the
/// request trace, mirroring [`nc_workloads::requests::Request`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReqFrame {
    /// Global trace sequence number (echoed in the decision).
    pub seq: u64,
    /// Event time, seconds (finite).
    pub time_s: f64,
    /// Tenant index.
    pub tenant: u32,
    /// Class index.
    pub class: u32,
    /// Requested attachment stage.
    pub attach: u32,
    /// The request event.
    pub event: EventKind,
    /// Tenant-local arrival index (the departure key).
    pub arrive_ix: u32,
}

/// Replace one stage of a tenant's local pipeline with the capacity
/// tier `tier` reprovisioning (see `fleet::reconfig_node`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReconfigFrame {
    /// Client-chosen sequence number (echoed in the response).
    pub seq: u64,
    /// Tenant whose local pipeline is reconfigured.
    pub tenant: u32,
    /// Stage index to replace.
    pub stage: u32,
    /// Capacity tier of the replacement node.
    pub tier: u32,
}

/// A capacity-planning query for the what-if sidecar: sweep the
/// tenant's current local pipeline over a source-rate grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WhatIfFrame {
    /// Client-chosen query id (echoed in the answer).
    pub id: u64,
    /// Tenant whose pipeline snapshot is swept.
    pub tenant: u32,
    /// Grid points over `[½·rate, 1½·rate]`.
    pub points: u32,
}

/// Frames a client sends to the service.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RequestFrame {
    /// An admission request (arrival or departure).
    Request(ReqFrame),
    /// A stage reconfiguration, draining through the owning shard.
    Reconfigure(ReconfigFrame),
    /// A sidecar capacity query.
    WhatIf(WhatIfFrame),
    /// Drain in-flight work and stop the service.
    Shutdown,
}

impl RequestFrame {
    /// The routing key: the tenant of an engine frame (`Request`,
    /// `Reconfigure`), `None` for the service-level frames that never
    /// reach a shard.
    pub(crate) fn tenant(&self) -> Option<u32> {
        match self {
            RequestFrame::Request(r) => Some(r.tenant),
            RequestFrame::Reconfigure(r) => Some(r.tenant),
            RequestFrame::WhatIf(_) | RequestFrame::Shutdown => None,
        }
    }
}

/// Arrival or departure, as recorded in the decision CSV.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A flow asks to be admitted.
    Arrive,
    /// A previously admitted flow leaves.
    Depart,
}

impl EventKind {
    /// Stable lowercase label (CSV output).
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Arrive => "arrive",
            EventKind::Depart => "depart",
        }
    }

    fn to_byte(self) -> u8 {
        match self {
            EventKind::Arrive => 0,
            EventKind::Depart => 1,
        }
    }

    fn from_byte(b: u8) -> Option<EventKind> {
        match b {
            0 => Some(EventKind::Arrive),
            1 => Some(EventKind::Depart),
            _ => None,
        }
    }
}

/// The outcome of one replayed request — the engine's decision for
/// arrivals, the bookkeeping result for departures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Admitted on the local pipeline.
    Admit,
    /// Admitted on the tenant's remote pipeline.
    AdmitRemote,
    /// Rejected (local reason).
    Reject(RejectReason),
    /// Departure vacated a resident flow.
    Vacate,
    /// Departure of a flow that was never admitted.
    Noop,
}

impl Outcome {
    /// The decision half of an arrival outcome.
    pub fn from_decision(d: &Decision) -> Outcome {
        match d {
            Decision::Admit { .. } => Outcome::Admit,
            Decision::AdmitRemote { .. } => Outcome::AdmitRemote,
            Decision::Reject { reason } => Outcome::Reject(*reason),
        }
    }

    /// Stable lowercase label (CSV output).
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Admit => "admit",
            Outcome::AdmitRemote => "admit-remote",
            Outcome::Reject(r) => r.label(),
            Outcome::Vacate => "vacate",
            Outcome::Noop => "noop",
        }
    }

    fn to_byte(self) -> u8 {
        match self {
            Outcome::Admit => 0,
            Outcome::AdmitRemote => 1,
            Outcome::Reject(RejectReason::PlacementCap) => 2,
            Outcome::Reject(RejectReason::RateInfeasible) => 3,
            Outcome::Reject(RejectReason::BudgetExceeded) => 4,
            Outcome::Reject(RejectReason::DeadlineExceeded) => 5,
            Outcome::Vacate => 6,
            Outcome::Noop => 7,
        }
    }

    fn from_byte(b: u8) -> Option<Outcome> {
        match b {
            0 => Some(Outcome::Admit),
            1 => Some(Outcome::AdmitRemote),
            2 => Some(Outcome::Reject(RejectReason::PlacementCap)),
            3 => Some(Outcome::Reject(RejectReason::RateInfeasible)),
            4 => Some(Outcome::Reject(RejectReason::BudgetExceeded)),
            5 => Some(Outcome::Reject(RejectReason::DeadlineExceeded)),
            6 => Some(Outcome::Vacate),
            7 => Some(Outcome::Noop),
            _ => None,
        }
    }
}

/// One decided request: the service's answer to a [`ReqFrame`] and the
/// row type of `results/admission.csv`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DecisionFrame {
    /// Global trace sequence number (the CSV sort key).
    pub seq: u64,
    /// Event time in the trace, seconds.
    pub time_s: f64,
    /// Tenant index.
    pub tenant: u32,
    /// Class index into the spec list.
    pub class: u32,
    /// Requested attachment stage.
    pub attach: u32,
    /// Arrival or departure.
    pub event: EventKind,
    /// Decision (arrivals) or bookkeeping (departures) outcome.
    pub outcome: Outcome,
    /// Certified delay bound for admissions (exact rational).
    pub bound: Option<Rat>,
}

impl DecisionFrame {
    /// One CSV line (no trailing newline). Bounds are exact rationals,
    /// so the text is identical on every host.
    pub fn to_csv(&self) -> String {
        let bound = match self.bound {
            Some(b) => format!("{}/{}", b.numer(), b.denom()),
            None => String::new(),
        };
        format!(
            "{},{:.9},{},{},{},{},{},{}",
            self.seq,
            self.time_s,
            self.tenant,
            self.class,
            self.attach,
            self.event.label(),
            self.outcome.label(),
            bound
        )
    }

    /// The CSV header line.
    pub fn csv_header() -> &'static str {
        "seq,time_s,tenant,class,attach,event,outcome,bound"
    }
}

/// The service's answer to a [`ReconfigFrame`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReconfiguredFrame {
    /// Echo of the request's sequence number.
    pub seq: u64,
    /// Echo of the reconfigured tenant.
    pub tenant: u32,
    /// Echo of the replaced stage.
    pub stage: u32,
    /// Echo of the requested service tier, so an applied
    /// reconfiguration can be mirrored without remembering the request.
    pub tier: u32,
    /// `true` when the reprovisioning was applied; `false` when
    /// onboarding rejected it (engine left untouched).
    pub applied: bool,
    /// Model-cache suffix entries evicted by the reconfiguration.
    ///
    /// A cache-locality metric, not part of the deterministic replay
    /// contract: the cache is keyed by pipeline *content*, so
    /// same-tier tenants share prefix entries within one engine and
    /// the count depends on which tenants share the owning shard.
    pub evicted: u64,
}

/// The sidecar's answer to a [`WhatIfFrame`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WhatIfAnswer {
    /// Echo of the query id.
    pub id: u64,
    /// Echo of the queried tenant.
    pub tenant: u32,
    /// Grid points evaluated.
    pub points: u32,
    /// Points whose end-to-end concatenation delay bound is finite.
    pub feasible: u32,
    /// Worst finite concatenation delay bound over the grid, seconds.
    pub worst_delay: Option<Rat>,
}

/// Frames the service sends back to a client.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ResponseFrame {
    /// A decided admission request.
    Decision(DecisionFrame),
    /// A completed reconfiguration.
    Reconfigured(ReconfiguredFrame),
    /// A completed what-if query.
    WhatIf(WhatIfAnswer),
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Little-endian field writer over the frame body.
struct Writer<'a>(&'a mut Vec<u8>);

impl Writer<'_> {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fn i128(&mut self, v: i128) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn opt_rat(&mut self, v: Option<Rat>) {
        match v {
            Some(r) => {
                self.u8(1);
                self.i128(r.numer());
                self.i128(r.denom());
            }
            None => self.u8(0),
        }
    }
}

/// Append one frame: length placeholder, tag + payload, then the
/// backpatched length.
fn with_frame(out: &mut Vec<u8>, tag: u8, body: impl FnOnce(&mut Writer<'_>)) {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    out.push(tag);
    body(&mut Writer(out));
    let len = (out.len() - at - 4) as u32;
    debug_assert!(len <= MAX_FRAME);
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Append the wire encoding of a request frame.
pub fn encode_request(out: &mut Vec<u8>, frame: &RequestFrame) {
    match frame {
        RequestFrame::Request(r) => with_frame(out, TAG_REQUEST, |w| {
            w.u64(r.seq);
            w.f64(r.time_s);
            w.u32(r.tenant);
            w.u32(r.class);
            w.u32(r.attach);
            w.u8(r.event.to_byte());
            w.u32(r.arrive_ix);
        }),
        RequestFrame::Reconfigure(r) => with_frame(out, TAG_RECONFIGURE, |w| {
            w.u64(r.seq);
            w.u32(r.tenant);
            w.u32(r.stage);
            w.u32(r.tier);
        }),
        RequestFrame::WhatIf(q) => with_frame(out, TAG_WHATIF, |w| {
            w.u64(q.id);
            w.u32(q.tenant);
            w.u32(q.points);
        }),
        RequestFrame::Shutdown => with_frame(out, TAG_SHUTDOWN, |_| {}),
    }
}

/// Append the wire encoding of a response frame.
pub fn encode_response(out: &mut Vec<u8>, frame: &ResponseFrame) {
    match frame {
        ResponseFrame::Decision(d) => with_frame(out, TAG_DECISION, |w| {
            w.u64(d.seq);
            w.f64(d.time_s);
            w.u32(d.tenant);
            w.u32(d.class);
            w.u32(d.attach);
            w.u8(d.event.to_byte());
            w.u8(d.outcome.to_byte());
            w.opt_rat(d.bound);
        }),
        ResponseFrame::Reconfigured(r) => with_frame(out, TAG_RECONFIGURED, |w| {
            w.u64(r.seq);
            w.u32(r.tenant);
            w.u32(r.stage);
            w.u32(r.tier);
            w.u8(r.applied as u8);
            w.u64(r.evicted);
        }),
        ResponseFrame::WhatIf(a) => with_frame(out, TAG_WHATIF_ANSWER, |w| {
            w.u64(a.id);
            w.u32(a.tenant);
            w.u32(a.points);
            w.u32(a.feasible);
            w.opt_rat(a.worst_delay);
        }),
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Checked little-endian field reader over one frame's payload.
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
    tag: u8,
    len: u32,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.at..end];
                self.at = end;
                Ok(s)
            }
            None => Err(ProtoError::WrongLength {
                tag: self.tag,
                len: self.len,
            }),
        }
    }
    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn finite_f64(&mut self) -> Result<f64, ProtoError> {
        let v = f64::from_bits(u64::from_le_bytes(self.take(8)?.try_into().unwrap()));
        if v.is_finite() {
            Ok(v)
        } else {
            Err(ProtoError::NonFiniteTime)
        }
    }
    fn i128(&mut self) -> Result<i128, ProtoError> {
        Ok(i128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }
    /// Canonical wire rational: positive denominator, neither limb
    /// `i128::MIN` (whose negation/gcd would overflow downstream).
    fn opt_rat(&mut self) -> Result<Option<Rat>, ProtoError> {
        let offset = self.at;
        match self.u8()? {
            0 => Ok(None),
            1 => {
                let num = self.i128()?;
                let den = self.i128()?;
                if den <= 0 || num == i128::MIN || den == i128::MIN {
                    return Err(ProtoError::BadRational);
                }
                Ok(Some(Rat::new(num, den)))
            }
            _ => Err(ProtoError::BadEnum {
                tag: self.tag,
                offset,
            }),
        }
    }
    fn event(&mut self) -> Result<EventKind, ProtoError> {
        let offset = self.at;
        EventKind::from_byte(self.u8()?).ok_or(ProtoError::BadEnum {
            tag: self.tag,
            offset,
        })
    }
    fn outcome(&mut self) -> Result<Outcome, ProtoError> {
        let offset = self.at;
        Outcome::from_byte(self.u8()?).ok_or(ProtoError::BadEnum {
            tag: self.tag,
            offset,
        })
    }
    /// The whole payload must have been consumed.
    fn finish(self) -> Result<(), ProtoError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError::WrongLength {
                tag: self.tag,
                len: self.len,
            })
        }
    }
}

/// Parse the frame header. `Ok(None)` while the buffer holds only a
/// prefix; otherwise the payload reader plus the total frame size.
fn frame_reader(buf: &[u8]) -> Result<Option<(Reader<'_>, usize)>, ProtoError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[..4].try_into().unwrap());
    if len == 0 {
        return Err(ProtoError::ZeroLength);
    }
    if len > MAX_FRAME {
        return Err(ProtoError::Oversized { len });
    }
    let total = 4 + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let tag = buf[4];
    Ok(Some((
        Reader {
            buf: &buf[5..total],
            at: 0,
            tag,
            len: len - 1,
        },
        total,
    )))
}

/// Decode one request frame from the front of `buf`. Returns the frame
/// and the bytes consumed, `Ok(None)` when the buffer holds only a
/// frame prefix, or a typed error for malformed input.
pub fn decode_request(buf: &[u8]) -> Result<Option<(RequestFrame, usize)>, ProtoError> {
    let Some((mut r, total)) = frame_reader(buf)? else {
        return Ok(None);
    };
    let frame = match r.tag {
        TAG_REQUEST => RequestFrame::Request(ReqFrame {
            seq: r.u64()?,
            time_s: r.finite_f64()?,
            tenant: r.u32()?,
            class: r.u32()?,
            attach: r.u32()?,
            event: r.event()?,
            arrive_ix: r.u32()?,
        }),
        TAG_RECONFIGURE => RequestFrame::Reconfigure(ReconfigFrame {
            seq: r.u64()?,
            tenant: r.u32()?,
            stage: r.u32()?,
            tier: r.u32()?,
        }),
        TAG_WHATIF => RequestFrame::WhatIf(WhatIfFrame {
            id: r.u64()?,
            tenant: r.u32()?,
            points: r.u32()?,
        }),
        TAG_SHUTDOWN => RequestFrame::Shutdown,
        t => return Err(ProtoError::UnknownTag(t)),
    };
    r.finish()?;
    Ok(Some((frame, total)))
}

/// Decode one response frame from the front of `buf`; same contract as
/// [`decode_request`].
pub fn decode_response(buf: &[u8]) -> Result<Option<(ResponseFrame, usize)>, ProtoError> {
    let Some((mut r, total)) = frame_reader(buf)? else {
        return Ok(None);
    };
    let frame = match r.tag {
        TAG_DECISION => ResponseFrame::Decision(DecisionFrame {
            seq: r.u64()?,
            time_s: r.finite_f64()?,
            tenant: r.u32()?,
            class: r.u32()?,
            attach: r.u32()?,
            event: r.event()?,
            outcome: r.outcome()?,
            bound: r.opt_rat()?,
        }),
        TAG_RECONFIGURED => {
            let seq = r.u64()?;
            let tenant = r.u32()?;
            let stage = r.u32()?;
            let tier = r.u32()?;
            let offset = r.at;
            let applied = match r.u8()? {
                0 => false,
                1 => true,
                _ => {
                    return Err(ProtoError::BadEnum {
                        tag: TAG_RECONFIGURED,
                        offset,
                    })
                }
            };
            ResponseFrame::Reconfigured(ReconfiguredFrame {
                seq,
                tenant,
                stage,
                tier,
                applied,
                evicted: r.u64()?,
            })
        }
        TAG_WHATIF_ANSWER => ResponseFrame::WhatIf(WhatIfAnswer {
            id: r.u64()?,
            tenant: r.u32()?,
            points: r.u32()?,
            feasible: r.u32()?,
            worst_delay: r.opt_rat()?,
        }),
        t => return Err(ProtoError::UnknownTag(t)),
    };
    r.finish()?;
    Ok(Some((frame, total)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_core::num::rat;

    fn req() -> RequestFrame {
        RequestFrame::Request(ReqFrame {
            seq: 42,
            time_s: 1.5,
            tenant: 3,
            class: 1,
            attach: 2,
            event: EventKind::Arrive,
            arrive_ix: 7,
        })
    }

    #[test]
    fn request_frames_roundtrip() {
        let frames = [
            req(),
            RequestFrame::Reconfigure(ReconfigFrame {
                seq: 9,
                tenant: 1,
                stage: 2,
                tier: 3,
            }),
            RequestFrame::WhatIf(WhatIfFrame {
                id: 5,
                tenant: 0,
                points: 8,
            }),
            RequestFrame::Shutdown,
        ];
        let mut buf = Vec::new();
        for f in &frames {
            encode_request(&mut buf, f);
        }
        let mut at = 0;
        for f in &frames {
            let (got, n) = decode_request(&buf[at..]).unwrap().unwrap();
            assert_eq!(&got, f);
            at += n;
        }
        assert_eq!(at, buf.len());
        assert_eq!(decode_request(&buf[at..]).unwrap(), None);
    }

    #[test]
    fn response_frames_roundtrip() {
        let frames = [
            ResponseFrame::Decision(DecisionFrame {
                seq: 42,
                time_s: 0.25,
                tenant: 3,
                class: 1,
                attach: 2,
                event: EventKind::Arrive,
                outcome: Outcome::Admit,
                bound: Some(rat(7, 3)),
            }),
            ResponseFrame::Decision(DecisionFrame {
                seq: 43,
                time_s: 0.5,
                tenant: 3,
                class: 1,
                attach: 2,
                event: EventKind::Depart,
                outcome: Outcome::Noop,
                bound: None,
            }),
            ResponseFrame::Reconfigured(ReconfiguredFrame {
                seq: 9,
                tenant: 1,
                stage: 2,
                tier: 3,
                applied: true,
                evicted: 4,
            }),
            ResponseFrame::WhatIf(WhatIfAnswer {
                id: 5,
                tenant: 0,
                points: 8,
                feasible: 6,
                worst_delay: Some(rat(1, 2)),
            }),
        ];
        let mut buf = Vec::new();
        for f in &frames {
            encode_response(&mut buf, f);
        }
        let mut at = 0;
        for f in &frames {
            let (got, n) = decode_response(&buf[at..]).unwrap().unwrap();
            assert_eq!(&got, f);
            at += n;
        }
        assert_eq!(at, buf.len());
    }

    #[test]
    fn oversized_header_is_rejected_before_buffering() {
        let mut buf = (MAX_FRAME + 1).to_le_bytes().to_vec();
        buf.push(TAG_REQUEST);
        assert_eq!(
            decode_request(&buf),
            Err(ProtoError::Oversized { len: MAX_FRAME + 1 })
        );
        assert_eq!(
            decode_response(&buf),
            Err(ProtoError::Oversized { len: MAX_FRAME + 1 })
        );
    }

    #[test]
    fn truncation_is_incomplete_not_an_error() {
        let mut buf = Vec::new();
        encode_request(&mut buf, &req());
        for cut in 0..buf.len() {
            assert_eq!(decode_request(&buf[..cut]).unwrap(), None, "cut {cut}");
        }
    }

    #[test]
    fn malformed_frames_yield_typed_errors() {
        // Zero length.
        assert_eq!(decode_request(&[0, 0, 0, 0]), Err(ProtoError::ZeroLength));
        // Unknown tag.
        assert_eq!(
            decode_request(&[1, 0, 0, 0, 0x7f]),
            Err(ProtoError::UnknownTag(0x7f))
        );
        // Response tag in the request direction.
        assert_eq!(
            decode_request(&[1, 0, 0, 0, TAG_DECISION]),
            Err(ProtoError::UnknownTag(TAG_DECISION))
        );
        // Short payload for the tag.
        assert_eq!(
            decode_request(&[2, 0, 0, 0, TAG_REQUEST, 0]),
            Err(ProtoError::WrongLength {
                tag: TAG_REQUEST,
                len: 1
            })
        );
        // Trailing payload bytes.
        assert_eq!(
            decode_request(&[2, 0, 0, 0, TAG_SHUTDOWN, 0]),
            Err(ProtoError::WrongLength {
                tag: TAG_SHUTDOWN,
                len: 1
            })
        );
        // Bad event byte.
        let mut buf = Vec::new();
        encode_request(&mut buf, &req());
        let event_at = 4 + 1 + 8 + 8 + 4 + 4 + 4;
        buf[event_at] = 9;
        assert!(matches!(
            decode_request(&buf),
            Err(ProtoError::BadEnum { .. })
        ));
        // Non-finite time.
        let mut buf = Vec::new();
        encode_request(&mut buf, &req());
        buf[4 + 1 + 8..4 + 1 + 16].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert_eq!(decode_request(&buf), Err(ProtoError::NonFiniteTime));
        // Zero-denominator rational.
        let mut buf = Vec::new();
        encode_response(
            &mut buf,
            &ResponseFrame::Decision(DecisionFrame {
                seq: 0,
                time_s: 0.0,
                tenant: 0,
                class: 0,
                attach: 0,
                event: EventKind::Arrive,
                outcome: Outcome::Admit,
                bound: Some(rat(1, 1)),
            }),
        );
        let den_at = buf.len() - 16;
        buf[den_at..].copy_from_slice(&0i128.to_le_bytes());
        assert_eq!(decode_response(&buf), Err(ProtoError::BadRational));
    }

    #[test]
    fn csv_format_matches_the_admission_artifact() {
        let d = DecisionFrame {
            seq: 12,
            time_s: 3.0625,
            tenant: 4,
            class: 2,
            attach: 1,
            event: EventKind::Arrive,
            outcome: Outcome::Admit,
            bound: Some(rat(5, 4)),
        };
        assert_eq!(d.to_csv(), "12,3.062500000,4,2,1,arrive,admit,5/4");
        let n = DecisionFrame {
            outcome: Outcome::Reject(RejectReason::DeadlineExceeded),
            bound: None,
            ..d
        };
        assert_eq!(n.to_csv(), "12,3.062500000,4,2,1,arrive,deadline-exceeded,");
        assert_eq!(
            DecisionFrame::csv_header(),
            "seq,time_s,tenant,class,attach,event,outcome,bound"
        );
    }
}
