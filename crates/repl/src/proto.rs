//! The replication wire protocol: length-prefixed, CRC-framed binary
//! messages over one TCP connection per replica.
//!
//! ## Frame layout
//!
//! ```text
//! magic  u32 LE   0x314C5052 ("RPL1")
//! type   u8       frame discriminator (below)
//! len    u32 LE   payload length in bytes
//! payload [len]
//! crc    u32 LE   CRC-32 over type ‖ len ‖ payload
//! ```
//!
//! All integers are little-endian, matching the WAL's own framing.
//! Strings carry a `u16` length prefix. A frame that fails the magic,
//! a bounds check, or the CRC is a protocol error — the connection is
//! torn down and the replica reconnects from its last applied LSN.
//!
//! ## Conversation
//!
//! ```text
//! replica → primary   HELLO   {version, last_applied_lsn, replica_id}
//! primary → replica   RESUME  {from_lsn, primary_http}          — or —
//!                     SNAP_BEGIN {lsn, num_pages, primary_http, catalog}
//!                     SNAP_PAGE × num_pages
//!                     SNAP_END
//! primary → replica   REC_IMAGE* REC_COMMIT  (repeating)
//!                     HEARTBEAT {committed_lsn, lag_bytes}
//! replica → primary   ACK {applied_lsn}      (after each applied commit)
//! ```
//!
//! The primary answers `RESUME` iff the replica's LSN still falls
//! inside the live log (`resume_floor ≤ lsn ≤ committed_lsn`);
//! otherwise checkpoint truncation has outrun the replica and a full
//! snapshot is re-sent. See DESIGN.md §16.

use mct_storage::Crc32;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};

/// Frame magic: `"RPL1"` read as a little-endian u32.
pub const MAGIC: u32 = u32::from_le_bytes(*b"RPL1");
/// Protocol version carried in `HELLO`; bumped on incompatible change.
pub const VERSION: u32 = 1;
/// Upper bound on one frame's payload — the WAL's own record cap plus
/// framing slack. Anything larger is a corrupt length field.
pub const MAX_FRAME: usize = 80 << 20;

const T_HELLO: u8 = 1;
const T_SNAP_BEGIN: u8 = 2;
const T_SNAP_PAGE: u8 = 3;
const T_SNAP_END: u8 = 4;
const T_RESUME: u8 = 5;
const T_REC_IMAGE: u8 = 6;
const T_REC_COMMIT: u8 = 7;
const T_HEARTBEAT: u8 = 8;
const T_ACK: u8 = 9;

/// One replication protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Replica's opening message: who it is and where its store stands.
    Hello {
        /// Protocol version ([`VERSION`]).
        version: u32,
        /// LSN of the last commit the replica has applied (0 = empty).
        last_applied_lsn: u64,
        /// Stable replica identity for the primary's status registry.
        replica_id: String,
    },
    /// Snapshot bootstrap begins: the store state as of `lsn`.
    SnapBegin {
        /// Committed LSN the snapshot captures; streaming resumes after it.
        lsn: u64,
        /// Data-file page count; exactly this many `SnapPage` frames follow.
        num_pages: u32,
        /// The primary's HTTP address, for the replica's `421` responses.
        primary_http: String,
        /// Serialized physical catalog (snapshot format).
        catalog: Vec<u8>,
    },
    /// One raw data-file page of the snapshot.
    SnapPage {
        /// Page number.
        page: u32,
        /// `PAGE_SIZE` bytes.
        image: Vec<u8>,
    },
    /// Snapshot complete; committed records stream from here on.
    SnapEnd,
    /// The replica's LSN is still in the live log: stream continues
    /// after `from_lsn`, no snapshot needed.
    Resume {
        /// Echo of the replica's last applied LSN.
        from_lsn: u64,
        /// The primary's HTTP address, for the replica's `421` responses.
        primary_http: String,
    },
    /// A committed page image (WAL `KIND_IMAGE`).
    RecImage {
        /// The record's LSN.
        lsn: u64,
        /// Page the image belongs to.
        page: u32,
        /// `PAGE_SIZE` bytes.
        image: Vec<u8>,
    },
    /// A commit (or checkpoint) record: apply the buffered images plus
    /// this catalog atomically.
    RecCommit {
        /// The commit record's LSN — the replica's new applied LSN.
        lsn: u64,
        /// True for `KIND_CHECKPOINT` records (idempotent re-commit).
        checkpoint: bool,
        /// Data-file page count at this commit (truncate beyond it).
        num_pages: u32,
        /// Serialized physical catalog.
        catalog: Vec<u8>,
    },
    /// Periodic primary→replica liveness + lag report.
    Heartbeat {
        /// The primary's current committed LSN.
        committed_lsn: u64,
        /// Committed WAL bytes not yet streamed to this replica.
        lag_bytes: u64,
    },
    /// Replica→primary: everything up to `applied_lsn` is applied.
    Ack {
        /// The replica's last applied commit LSN.
        applied_lsn: u64,
    },
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) -> io::Result<()> {
    let bytes = s.as_bytes();
    if bytes.len() > u16::MAX as usize {
        return Err(io::Error::other("string field too long for frame"));
    }
    put_u16(out, bytes.len() as u16);
    out.extend_from_slice(bytes);
    Ok(())
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Bounds-checked little-endian reader over one frame's payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| io::Error::other("replication frame payload truncated"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> io::Result<String> {
        let n = self.u16()? as usize;
        String::from_utf8(self.take(n)?.to_vec())
            .map_err(|_| io::Error::other("non-UTF-8 string in replication frame"))
    }

    fn bytes(&mut self) -> io::Result<Vec<u8>> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    fn done(&self) -> io::Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(io::Error::other("trailing bytes in replication frame"))
        }
    }
}

impl Frame {
    fn type_byte(&self) -> u8 {
        match self {
            Frame::Hello { .. } => T_HELLO,
            Frame::SnapBegin { .. } => T_SNAP_BEGIN,
            Frame::SnapPage { .. } => T_SNAP_PAGE,
            Frame::SnapEnd => T_SNAP_END,
            Frame::Resume { .. } => T_RESUME,
            Frame::RecImage { .. } => T_REC_IMAGE,
            Frame::RecCommit { .. } => T_REC_COMMIT,
            Frame::Heartbeat { .. } => T_HEARTBEAT,
            Frame::Ack { .. } => T_ACK,
        }
    }

    fn payload(&self) -> io::Result<Vec<u8>> {
        let mut p = Vec::new();
        match self {
            Frame::Hello {
                version,
                last_applied_lsn,
                replica_id,
            } => {
                put_u32(&mut p, *version);
                put_u64(&mut p, *last_applied_lsn);
                put_str(&mut p, replica_id)?;
            }
            Frame::SnapBegin {
                lsn,
                num_pages,
                primary_http,
                catalog,
            } => {
                put_u64(&mut p, *lsn);
                put_u32(&mut p, *num_pages);
                put_str(&mut p, primary_http)?;
                put_bytes(&mut p, catalog);
            }
            Frame::SnapPage { page, image } => {
                put_u32(&mut p, *page);
                put_bytes(&mut p, image);
            }
            Frame::SnapEnd => {}
            Frame::Resume {
                from_lsn,
                primary_http,
            } => {
                put_u64(&mut p, *from_lsn);
                put_str(&mut p, primary_http)?;
            }
            Frame::RecImage { lsn, page, image } => {
                put_u64(&mut p, *lsn);
                put_u32(&mut p, *page);
                put_bytes(&mut p, image);
            }
            Frame::RecCommit {
                lsn,
                checkpoint,
                num_pages,
                catalog,
            } => {
                put_u64(&mut p, *lsn);
                p.push(u8::from(*checkpoint));
                put_u32(&mut p, *num_pages);
                put_bytes(&mut p, catalog);
            }
            Frame::Heartbeat {
                committed_lsn,
                lag_bytes,
            } => {
                put_u64(&mut p, *committed_lsn);
                put_u64(&mut p, *lag_bytes);
            }
            Frame::Ack { applied_lsn } => {
                put_u64(&mut p, *applied_lsn);
            }
        }
        Ok(p)
    }

    fn decode(typ: u8, payload: &[u8]) -> io::Result<Frame> {
        let mut c = Cursor {
            buf: payload,
            pos: 0,
        };
        let frame = match typ {
            T_HELLO => Frame::Hello {
                version: c.u32()?,
                last_applied_lsn: c.u64()?,
                replica_id: c.str()?,
            },
            T_SNAP_BEGIN => Frame::SnapBegin {
                lsn: c.u64()?,
                num_pages: c.u32()?,
                primary_http: c.str()?,
                catalog: c.bytes()?,
            },
            T_SNAP_PAGE => Frame::SnapPage {
                page: c.u32()?,
                image: c.bytes()?,
            },
            T_SNAP_END => Frame::SnapEnd,
            T_RESUME => Frame::Resume {
                from_lsn: c.u64()?,
                primary_http: c.str()?,
            },
            T_REC_IMAGE => Frame::RecImage {
                lsn: c.u64()?,
                page: c.u32()?,
                image: c.bytes()?,
            },
            T_REC_COMMIT => Frame::RecCommit {
                lsn: c.u64()?,
                checkpoint: c.u8()? != 0,
                num_pages: c.u32()?,
                catalog: c.bytes()?,
            },
            T_HEARTBEAT => Frame::Heartbeat {
                committed_lsn: c.u64()?,
                lag_bytes: c.u64()?,
            },
            T_ACK => Frame::Ack {
                applied_lsn: c.u64()?,
            },
            other => {
                return Err(io::Error::other(format!(
                    "unknown replication frame type {other}"
                )))
            }
        };
        c.done()?;
        Ok(frame)
    }
}

/// CRC input: the type byte and length field guard the framing itself,
/// not just the payload.
fn frame_crc(typ: u8, payload: &[u8]) -> u32 {
    let mut head = [0u8; 5];
    head[0] = typ;
    head[1..5].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    Crc32::new().update(&head).update(payload).finish()
}

/// Serialize and send one frame.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    let typ = frame.type_byte();
    let payload = frame.payload()?;
    let mut out = Vec::with_capacity(13 + payload.len() + 4);
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(typ);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&frame_crc(typ, &payload).to_le_bytes());
    w.write_all(&out)
}

fn read_exact_into(r: &mut impl Read, buf: &mut [u8]) -> io::Result<()> {
    r.read_exact(buf)
}

/// Read one frame from a blocking reader (test helper and the
/// bootstrap path, where idle-timeouts are not in play).
pub fn read_frame(r: &mut impl Read) -> io::Result<Frame> {
    let mut magic = [0u8; 4];
    read_exact_into(r, &mut magic)?;
    finish_frame(r, magic)
}

/// Read one frame, tolerating read-timeout wakeups while the
/// connection is idle (between frames). Returns `Ok(None)` when `stop`
/// was raised during an idle wait. A timeout that fires *mid-frame*
/// surfaces as an error — the peer went quiet with a frame half-sent,
/// and resynchronizing inside a byte stream is not possible; the
/// caller's reconnect path handles it.
pub fn read_frame_idle(stream: &mut TcpStream, stop: &AtomicBool) -> io::Result<Option<Frame>> {
    let mut magic = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        if stop.load(Ordering::SeqCst) {
            return Ok(None);
        }
        match stream.read(&mut magic[got..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "replication peer closed the connection",
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if got == 0
                    && matches!(
                        e.kind(),
                        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
                    ) =>
            {
                continue
            }
            Err(e) => return Err(e),
        }
    }
    finish_frame(stream, magic).map(Some)
}

/// Everything after the magic: header, payload, CRC check, decode.
fn finish_frame(r: &mut impl Read, magic: [u8; 4]) -> io::Result<Frame> {
    if u32::from_le_bytes(magic) != MAGIC {
        return Err(io::Error::other("bad replication frame magic"));
    }
    let mut head = [0u8; 5];
    read_exact_into(r, &mut head)?;
    let typ = head[0];
    let len = u32::from_le_bytes(head[1..5].try_into().unwrap()) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::other(format!(
            "replication frame length {len} exceeds cap"
        )));
    }
    let mut payload = vec![0u8; len];
    read_exact_into(r, &mut payload)?;
    let mut crc = [0u8; 4];
    read_exact_into(r, &mut crc)?;
    if u32::from_le_bytes(crc) != frame_crc(typ, &payload) {
        return Err(io::Error::other("replication frame CRC mismatch"));
    }
    Frame::decode(typ, &payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: Frame) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &f).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), f);
        assert!(r.is_empty(), "bytes left over");
    }

    #[test]
    fn frames_roundtrip() {
        roundtrip(Frame::Hello {
            version: VERSION,
            last_applied_lsn: 42,
            replica_id: "replica-a".to_string(),
        });
        roundtrip(Frame::SnapBegin {
            lsn: 7,
            num_pages: 3,
            primary_http: "127.0.0.1:8080".to_string(),
            catalog: vec![1, 2, 3],
        });
        roundtrip(Frame::SnapPage {
            page: 2,
            image: vec![0xAB; 64],
        });
        roundtrip(Frame::SnapEnd);
        roundtrip(Frame::Resume {
            from_lsn: 9,
            primary_http: "h:1".to_string(),
        });
        roundtrip(Frame::RecImage {
            lsn: 10,
            page: 5,
            image: vec![0xCD; 32],
        });
        roundtrip(Frame::RecCommit {
            lsn: 11,
            checkpoint: true,
            num_pages: 6,
            catalog: vec![9; 17],
        });
        roundtrip(Frame::Heartbeat {
            committed_lsn: 11,
            lag_bytes: 0,
        });
        roundtrip(Frame::Ack { applied_lsn: 11 });
    }

    #[test]
    fn corrupt_crc_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Ack { applied_lsn: 1 }).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0xFF;
        assert!(read_frame(&mut &buf[..]).is_err());
    }

    #[test]
    fn corrupt_payload_is_rejected() {
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            &Frame::Hello {
                version: 1,
                last_applied_lsn: 0,
                replica_id: "x".to_string(),
            },
        )
        .unwrap();
        buf[10] ^= 0x55;
        assert!(read_frame(&mut &buf[..]).is_err());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::SnapEnd).unwrap();
        buf[0] = b'X';
        assert!(read_frame(&mut &buf[..]).is_err());
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.push(T_SNAP_END);
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(read_frame(&mut &buf[..]).is_err());
    }

    #[test]
    fn trailing_garbage_inside_payload_is_rejected() {
        // A SnapEnd with a non-empty payload: decode must notice.
        let payload = [0u8; 3];
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.push(T_SNAP_END);
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(&payload);
        buf.extend_from_slice(&frame_crc(T_SNAP_END, &payload).to_le_bytes());
        assert!(read_frame(&mut &buf[..]).is_err());
    }
}
