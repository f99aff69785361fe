#![warn(missing_docs)]
//! The write-ahead log.
//!
//! Log records carry the paper's operation descriptions (logical records name
//! functions and object ids; physical records carry values), plus the
//! bookkeeping records §5 relies on: *installation* records (advancing rSIs
//! of flushed **and** unexposed objects), *flush* records, flush-transaction
//! records (the §4 baseline), and ARIES-style *checkpoint* records holding
//! the dirty object table.
//!
//! LSNs are byte offsets into the log address space, so every record address
//! is also a state identifier — the "LSNs as SIs" instantiation. The log has
//! a volatile buffer and a forced stable prefix; a crash discards the buffer
//! (or, with [`Wal::crash_torn`], half-writes it, exercising the CRC-guarded
//! torn-tail scan).

mod archive;
mod backend;
mod device;
mod persist;
mod record;
mod wal;

pub use archive::LogArchive;
pub use backend::{DurabilityBackend, PersistOutcome, LOG_SUBDIR, STORE_SUBDIR};
pub use record::{
    CheckpointRecord, ConvertedRecord, InstallRecord, LogRecord, PhysicalResultRecord,
};
pub use wal::{BeginForce, ForceOutcome, Wal, WalScan};
