#![warn(missing_docs)]

//! # hdm-common
//!
//! Shared foundation types for the Hive-on-DataMPI reproduction.
//!
//! This crate hosts everything that more than one subsystem needs:
//!
//! * [`value::Value`] / [`value::DataType`] — the dynamic cell types that
//!   rows are made of (the equivalent of Hive's primitive object inspectors).
//! * [`row::Row`] / [`row::Schema`] — relational rows and their schemas.
//! * [`codec`] — varint/zigzag byte codecs used by every serialized format.
//! * [`kv`] — the key-value pair wire representation exchanged between
//!   Mappers/O-tasks and Reducers/A-tasks, plus raw-byte comparators.
//! * [`sortkey`] — order-preserving binary key encodings (Hive's
//!   `BinarySortableSerDe` analogue) so sort/merge compare raw bytes.
//! * [`partition`] — the [`partition::Partitioner`] trait and the default
//!   deterministic hash partitioner.
//! * [`conf::JobConf`] — the string-typed configuration map, including the
//!   `hive.datampi.*` tuning knobs from the paper (Section IV-D).
//! * [`error::HdmError`] — the common error type.
//! * [`stats::Histogram`] — fixed-bucket histograms used to reproduce the
//!   key-value-size distributions of Figure 2.
//!
//! # Example
//!
//! ```
//! use hdm_common::row::{Row, Schema};
//! use hdm_common::value::{DataType, Value};
//!
//! let schema = Schema::new(vec![
//!     ("l_orderkey", DataType::Long),
//!     ("l_shipdate", DataType::Date),
//! ]);
//! let row = Row::from(vec![Value::Long(42), Value::date_from_ymd(1998, 9, 2)]);
//! assert_eq!(schema.len(), 2);
//! assert_eq!(row.get(0), &Value::Long(42));
//! ```

pub mod cancel;
pub mod codec;
pub mod conf;
pub mod error;
pub mod kv;
pub mod partition;
pub mod row;
pub mod sortkey;
pub mod stats;
pub mod value;

pub use cancel::{CancelToken, WakerRegistration};
pub use conf::JobConf;
pub use error::{HdmError, Result};
pub use row::{Row, Schema};
pub use value::{DataType, Value};
