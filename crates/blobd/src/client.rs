//! `RemoteStore`: a [`BlobStore`] whose bytes live in an `obiwan-blobd`
//! process.
//!
//! The client owns one lazily-established TCP connection behind a mutex
//! (the read-only trait methods `contains`/`used_bytes`/`blob_count` take
//! `&self`), applies per-operation timeouts, and retries each call a
//! bounded number of times with a fresh connection. Failure mapping is the
//! heart of the design: a dead, refused or timed-out daemon surfaces as
//! [`NetError::Departed`] — exactly the error the swapping core's k-way
//! fan-out, ordered failover reload and repair sweep already treat as
//! "move on to the next holder" — while a corrupt frame surfaces as the
//! hard [`NetError::Protocol`], because failover must not paper over
//! corruption.

use crate::frame::{
    decode_response, decode_stat, encode_request, read_frame, write_frame, FrameError, Request,
    Response,
};
use obiwan_net::{BlobStore, Bytes, DeviceId, NetError};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

/// Per-operation socket timeout (connect, read and write).
const OP_TIMEOUT: Duration = Duration::from_secs(2);

/// Connection attempts per call before declaring the daemon departed.
const MAX_ATTEMPTS: u32 = 3;

/// A blob store client speaking the framed protocol to one daemon.
pub struct RemoteStore {
    device: DeviceId,
    addr: SocketAddr,
    conn: Mutex<Option<TcpStream>>,
}

/// What one wire call produced, plus whether the connection had to be
/// re-established mid-call (which makes a `Duplicate` on a retried store
/// ambiguous — see [`RemoteStore::store_blob`]).
struct CallOutcome {
    response: Response,
    reconnected: bool,
}

impl RemoteStore {
    /// A client for the daemon at `addr`, attributing errors to `device`
    /// (the id this store plays in the caller's world). The connection is
    /// established lazily on first use.
    pub fn connect(device: DeviceId, addr: SocketAddr) -> RemoteStore {
        RemoteStore {
            device,
            addr,
            conn: Mutex::new(None),
        }
    }

    /// The daemon's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn departed(&self) -> NetError {
        NetError::Departed {
            device: self.device,
        }
    }

    fn protocol(&self, detail: impl std::fmt::Display) -> NetError {
        NetError::Protocol {
            device: self.device,
            detail: detail.to_string(),
        }
    }

    fn dial(&self) -> io::Result<TcpStream> {
        let stream = TcpStream::connect_timeout(&self.addr, OP_TIMEOUT)?;
        stream.set_read_timeout(Some(OP_TIMEOUT))?;
        stream.set_write_timeout(Some(OP_TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    /// Take the cached connection, leaving the slot empty.
    fn take_conn(&self) -> Option<TcpStream> {
        self.conn.lock().unwrap_or_else(|p| p.into_inner()).take()
    }

    /// Stow a healthy connection back for the next call. If another call
    /// raced us and stowed its own, the newer one wins and ours is
    /// dropped — briefly redundant, never wrong.
    fn stow_conn(&self, stream: TcpStream) {
        *self.conn.lock().unwrap_or_else(|p| p.into_inner()) = Some(stream);
    }

    /// One request/response exchange with bounded reconnect-and-retry.
    ///
    /// The `conn` mutex is held only to take the cached stream out and to
    /// stow it back: every dial and wire exchange runs lock-free, so a
    /// slow or dead daemon stalls only the calling thread, never other
    /// threads parked on the client's lock.
    fn call(&self, req: &Request) -> Result<CallOutcome, NetError> {
        let body = encode_request(req);
        let mut cached = self.take_conn();
        let mut reconnected = false;
        for _attempt in 0..MAX_ATTEMPTS {
            if cached.is_none() {
                reconnected = true;
                match self.dial() {
                    Ok(s) => cached = Some(s),
                    Err(_) => continue, // daemon down; next attempt re-dials
                }
            }
            let Some(stream) = cached.as_mut() else {
                continue;
            };
            let exchanged = write_frame(stream, &body).and_then(|()| read_frame(stream));
            match exchanged {
                Ok(resp_body) => {
                    // The wire exchange succeeded, so the connection is
                    // healthy — stow it whatever the payload says.
                    if let Some(stream) = cached.take() {
                        self.stow_conn(stream);
                    }
                    let response = decode_response(&resp_body).map_err(|e| self.protocol(&e))?;
                    if let Response::Malformed { detail } = response {
                        return Err(self.protocol(detail));
                    }
                    return Ok(CallOutcome {
                        response,
                        reconnected,
                    });
                }
                Err(FrameError::Oversized { .. } | FrameError::UnknownStatus(_)) => {
                    return Err(self.protocol("corrupt response frame"));
                }
                Err(_io_or_truncation) => {
                    // Dead socket, timeout or mid-frame stall: reconnect
                    // and retry with the next attempt.
                    cached = None;
                }
            }
        }
        Err(self.departed())
    }

    fn store_blob(&self, key: &str, data: Bytes) -> Result<(), NetError> {
        let out = self.call(&Request::Store {
            key: key.to_owned(),
            data,
        })?;
        match out.response {
            Response::Ok { .. } => Ok(()),
            // If the connection dropped after the daemon applied a store
            // but before its reply arrived, the retried store sees
            // `Duplicate` for a blob that *is* durably stored. Keys are
            // epoch-unique (`dev{home}-sc{sc}-e{epoch}`), so a duplicate
            // on a reconnected call can only be our own first attempt.
            Response::Duplicate if out.reconnected => Ok(()),
            other => Err(self.response_error(other, "store", key)),
        }
    }

    /// Map a non-`Ok` response to the caller-side error vocabulary.
    fn response_error(&self, resp: Response, op: &'static str, key: &str) -> NetError {
        match resp {
            Response::Ok { .. } => self.protocol("Ok response routed to error mapping"),
            Response::UnknownBlob => NetError::UnknownBlob {
                device: self.device,
                key: key.to_owned(),
            },
            Response::Duplicate => NetError::DuplicateBlob {
                device: self.device,
                key: key.to_owned(),
            },
            Response::QuotaExceeded {
                requested,
                used,
                quota,
            } => NetError::QuotaExceeded {
                device: self.device,
                requested: requested as usize,
                used: used as usize,
                quota: quota as usize,
            },
            Response::Injected => NetError::InjectedFailure {
                device: self.device,
                op,
            },
            Response::Malformed { detail } => self.protocol(detail),
            Response::ShuttingDown => self.departed(),
        }
    }

    /// `(used_bytes, quota, blob_count)` from the daemon's `Stat` op.
    ///
    /// # Errors
    ///
    /// [`NetError::Departed`] for a dead daemon, [`NetError::Protocol`]
    /// for a corrupt reply.
    pub fn stat(&self) -> Result<(u64, u64, u64), NetError> {
        let out = self.call(&Request::Stat)?;
        match out.response {
            Response::Ok { payload } => decode_stat(&payload).map_err(|e| self.protocol(&e)),
            other => Err(self.response_error(other, "stat", "")),
        }
    }

    /// The bytes stored under `key`, or `None` if the daemon does not hold
    /// them or does not answer. A control-plane read through `&self` (the
    /// auditor inspects blob headers with it); on the wire it is a `fetch`.
    pub fn peek(&self, key: &str) -> Option<Bytes> {
        self.fetch_bytes(key).ok()
    }

    fn fetch_bytes(&self, key: &str) -> Result<Bytes, NetError> {
        let out = self.call(&Request::Fetch {
            key: key.to_owned(),
        })?;
        match out.response {
            Response::Ok { payload } => Ok(payload),
            other => Err(self.response_error(other, "fetch", key)),
        }
    }

    /// Ask the daemon to shut down gracefully.
    ///
    /// # Errors
    ///
    /// As [`RemoteStore::stat`].
    pub fn shutdown_daemon(&self) -> Result<(), NetError> {
        let out = self.call(&Request::Shutdown)?;
        match out.response {
            Response::Ok { .. } => Ok(()),
            other => Err(self.response_error(other, "shutdown", "")),
        }
    }
}

impl std::fmt::Debug for RemoteStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteStore")
            .field("device", &self.device)
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl BlobStore for RemoteStore {
    fn store(&mut self, key: &str, data: Bytes) -> obiwan_net::Result<()> {
        self.store_blob(key, data)
    }

    fn fetch(&mut self, key: &str) -> obiwan_net::Result<Bytes> {
        self.fetch_bytes(key)
    }

    fn drop_blob(&mut self, key: &str) -> obiwan_net::Result<()> {
        let out = self.call(&Request::Drop {
            key: key.to_owned(),
        })?;
        match out.response {
            Response::Ok { .. } => Ok(()),
            // Symmetric to the store-retry case: if the daemon applied
            // the drop but the reply was lost, the retry sees the key
            // already gone.
            Response::UnknownBlob if out.reconnected => Ok(()),
            other => Err(self.response_error(other, "drop", key)),
        }
    }

    fn contains(&self, key: &str) -> bool {
        self.call(&Request::PeekHeader {
            key: key.to_owned(),
        })
        .is_ok_and(|out| matches!(out.response, Response::Ok { .. }))
    }

    /// A daemon that does not answer reads as 0 here; callers that must
    /// tell a dead daemon from an empty one use [`RemoteStore::stat`].
    fn used_bytes(&self) -> usize {
        self.stat().map(|(used, _, _)| used as usize).unwrap_or(0)
    }

    fn blob_count(&self) -> usize {
        self.stat().map(|(_, _, n)| n as usize).unwrap_or(0)
    }
}
