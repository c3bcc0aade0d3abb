//! The workspace-level error type.
//!
//! Every layer keeps its own focused error enum (`TensorError`, `ImageError`,
//! `FlowError`, `StereoError`) so kernels stay decoupled, but the system
//! facade surfaces exactly one type: [`AsvError`]. `From` conversions let
//! errors from any layer flow through a `?` chain into [`AsvError`], and
//! [`std::error::Error::source`] preserves the underlying layer error for
//! callers that want to inspect it.

use asv_flow::FlowError;
use asv_image::ImageError;
use asv_stereo::StereoError;
use asv_tensor::TensorError;
use std::error::Error;
use std::fmt;

/// Unified error type of the ASV system facade.
///
/// Each variant wraps the error enum of one workspace layer; [`AsvError::Config`]
/// covers system-level misconfiguration that no single layer owns.
#[derive(Debug, Clone, PartialEq)]
pub enum AsvError {
    /// An error from the tensor kernels (`asv-tensor`).
    Tensor(TensorError),
    /// An error from the image layer (`asv-image`).
    Image(ImageError),
    /// An error from optical-flow estimation (`asv-flow`).
    Flow(FlowError),
    /// An error from stereo matching (`asv-stereo`).
    Stereo(StereoError),
    /// A stereo-network name that is not in the zoo.
    UnknownNetwork {
        /// The name that failed to resolve.
        name: String,
    },
    /// A system-level configuration problem.
    Config {
        /// Human readable description.
        context: String,
    },
    /// The runtime is shutting down and no longer accepts work.
    Shutdown,
    /// Admission control rejected a frame because the target queue is full.
    Saturated {
        /// Which queue rejected the frame (a session inbox).
        context: String,
    },
    /// A frame on the wire failed to decode (network ingest edge).
    Wire {
        /// Which structural check rejected the message.
        fault: WireFault,
        /// Human readable detail (offsets, expected vs observed values).
        context: String,
    },
    /// A network transport failure (connect, send or ack) that survived the
    /// client's retry budget.
    Transport {
        /// Human readable description of the failed operation.
        context: String,
    },
    /// The scheduler shard holding this session has failed (worker panic,
    /// poisoned lock or injected fault) and no longer accepts frames.
    ShardDown {
        /// Which shard failed and why.
        context: String,
    },
}

/// The structural check that rejected a wire message.
///
/// Every decode failure maps to exactly one fault so the transport layer can
/// count errors per kind (`asv_transport_errors_total{kind}`) without parsing
/// message strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireFault {
    /// The four magic bytes did not read `ASVF`.
    BadMagic,
    /// The header carried an unsupported format version.
    Version,
    /// The message ended before the declared length.
    Truncated,
    /// The length prefix exceeded the configured maximum frame size.
    Oversized,
    /// The frame checksum did not match the message body.
    Crc,
    /// The session key was not valid UTF-8.
    Key,
    /// The declared lengths were internally inconsistent (length prefix vs
    /// key length and plane dimensions).
    Length,
    /// A frame arrived with a sequence number ahead of the expected one
    /// (frames were lost or reordered on the wire).
    Gap,
}

impl WireFault {
    /// Stable lower-case name, used as the `kind` label of
    /// `asv_transport_errors_total`.
    pub fn name(self) -> &'static str {
        match self {
            WireFault::BadMagic => "bad_magic",
            WireFault::Version => "version",
            WireFault::Truncated => "truncated",
            WireFault::Oversized => "oversized",
            WireFault::Crc => "crc",
            WireFault::Key => "key",
            WireFault::Length => "length",
            WireFault::Gap => "gap",
        }
    }
}

impl fmt::Display for WireFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl AsvError {
    /// Builds an [`AsvError::Config`] from anything displayable.
    pub fn config(context: impl fmt::Display) -> Self {
        AsvError::Config {
            context: context.to_string(), // lint: alloc-ok(error path)
        }
    }

    /// Builds an [`AsvError::Saturated`] naming the rejecting queue.
    pub fn saturated(context: impl fmt::Display) -> Self {
        AsvError::Saturated {
            context: context.to_string(), // lint: alloc-ok(error path)
        }
    }

    /// Builds an [`AsvError::Wire`] for one structural decode fault.
    pub fn wire(fault: WireFault, context: impl fmt::Display) -> Self {
        AsvError::Wire {
            fault,
            context: context.to_string(), // lint: alloc-ok(error path)
        }
    }

    /// Builds an [`AsvError::Transport`] from anything displayable.
    pub fn transport(context: impl fmt::Display) -> Self {
        AsvError::Transport {
            context: context.to_string(),
        }
    }

    /// Builds an [`AsvError::ShardDown`] naming the failed shard.
    pub fn shard_down(context: impl fmt::Display) -> Self {
        AsvError::ShardDown {
            context: context.to_string(), // lint: alloc-ok(error path)
        }
    }
}

impl fmt::Display for AsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsvError::Tensor(e) => write!(f, "tensor: {e}"),
            AsvError::Image(e) => write!(f, "image: {e}"),
            AsvError::Flow(e) => write!(f, "flow: {e}"),
            AsvError::Stereo(e) => write!(f, "stereo: {e}"),
            AsvError::UnknownNetwork { name } => {
                write!(f, "unknown stereo network {name:?} (expected one of the zoo names: DispNet, FlowNetC, GC-Net, PSMNet)")
            }
            AsvError::Config { context } => write!(f, "configuration: {context}"),
            AsvError::Shutdown => write!(f, "runtime is shut down"),
            AsvError::Saturated { context } => {
                write!(f, "admission control rejected the frame: {context} is full")
            }
            AsvError::Wire { fault, context } => {
                write!(f, "wire decode failed ({fault}): {context}")
            }
            AsvError::Transport { context } => write!(f, "transport: {context}"),
            AsvError::ShardDown { context } => write!(f, "shard down: {context}"),
        }
    }
}

impl Error for AsvError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AsvError::Tensor(e) => Some(e),
            AsvError::Image(e) => Some(e),
            AsvError::Flow(e) => Some(e),
            AsvError::Stereo(e) => Some(e),
            AsvError::UnknownNetwork { .. }
            | AsvError::Config { .. }
            | AsvError::Shutdown
            | AsvError::Saturated { .. }
            | AsvError::Wire { .. }
            | AsvError::Transport { .. }
            | AsvError::ShardDown { .. } => None,
        }
    }
}

impl From<TensorError> for AsvError {
    fn from(e: TensorError) -> Self {
        AsvError::Tensor(e)
    }
}

impl From<ImageError> for AsvError {
    fn from(e: ImageError) -> Self {
        AsvError::Image(e)
    }
}

impl From<FlowError> for AsvError {
    fn from(e: FlowError) -> Self {
        AsvError::Flow(e)
    }
}

impl From<StereoError> for AsvError {
    fn from(e: StereoError) -> Self {
        AsvError::Stereo(e)
    }
}

/// Convenience alias for results carrying an [`AsvError`].
pub type Result<T> = std::result::Result<T, AsvError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_tensor_error_preserves_source() {
        let inner = TensorError::shape_mismatch("kernel channels 3 vs ifmap channels 2");
        let e: AsvError = inner.clone().into();
        assert_eq!(e, AsvError::Tensor(inner.clone()));
        assert!(e.to_string().starts_with("tensor: "));
        assert_eq!(e.source().unwrap().to_string(), inner.to_string());
    }

    #[test]
    fn from_image_error_preserves_source() {
        let inner = ImageError::dimension_mismatch("4x4 vs 2x2");
        let e: AsvError = inner.clone().into();
        assert_eq!(e, AsvError::Image(inner.clone()));
        assert!(e.to_string().starts_with("image: "));
        assert_eq!(e.source().unwrap().to_string(), inner.to_string());
    }

    #[test]
    fn from_flow_error_preserves_source() {
        let inner = FlowError::frame_mismatch("8x8 vs 8x6");
        let e: AsvError = inner.clone().into();
        assert_eq!(e, AsvError::Flow(inner.clone()));
        assert!(e.to_string().starts_with("flow: "));
        assert_eq!(e.source().unwrap().to_string(), inner.to_string());
    }

    #[test]
    fn from_stereo_error_preserves_source() {
        let inner = StereoError::invalid_parameter("max_disparity must be non-zero");
        let e: AsvError = inner.clone().into();
        assert_eq!(e, AsvError::Stereo(inner.clone()));
        assert!(e.to_string().starts_with("stereo: "));
        assert_eq!(e.source().unwrap().to_string(), inner.to_string());
    }

    #[test]
    fn unknown_network_errors_name_the_offender() {
        let e = AsvError::UnknownNetwork {
            name: "ResNet".to_owned(),
        };
        assert!(e.source().is_none());
        assert!(e.to_string().contains("\"ResNet\""));
        assert!(e.to_string().contains("DispNet"));
    }

    #[test]
    fn runtime_errors_have_no_source_and_name_the_queue() {
        let e = AsvError::Shutdown;
        assert!(e.source().is_none());
        assert!(e.to_string().contains("shut down"));
        let e = AsvError::saturated("session-3 inbox");
        assert!(e.source().is_none());
        assert_eq!(
            e,
            AsvError::Saturated {
                context: "session-3 inbox".to_owned()
            }
        );
        assert!(e.to_string().contains("session-3 inbox"));
    }

    #[test]
    fn wire_errors_carry_the_fault_and_a_stable_kind_name() {
        let e = AsvError::wire(WireFault::Crc, "checksum 0xDEAD vs 0xBEEF");
        assert!(e.source().is_none());
        assert_eq!(
            e,
            AsvError::Wire {
                fault: WireFault::Crc,
                context: "checksum 0xDEAD vs 0xBEEF".to_owned()
            }
        );
        assert!(e.to_string().contains("(crc)"));
        assert!(e.to_string().contains("0xDEAD"));
        // The metric label names are a stable contract.
        let names: Vec<_> = [
            WireFault::BadMagic,
            WireFault::Version,
            WireFault::Truncated,
            WireFault::Oversized,
            WireFault::Crc,
            WireFault::Key,
            WireFault::Length,
            WireFault::Gap,
        ]
        .iter()
        .map(|f| f.name())
        .collect();
        assert_eq!(
            names,
            [
                "bad_magic",
                "version",
                "truncated",
                "oversized",
                "crc",
                "key",
                "length",
                "gap"
            ]
        );
    }

    #[test]
    fn transport_and_shard_down_errors_name_the_failure() {
        let e = AsvError::transport("connect to 10.0.0.1:9000 failed after 5 retries");
        assert!(e.source().is_none());
        assert!(e.to_string().contains("transport:"));
        assert!(e.to_string().contains("5 retries"));
        let e = AsvError::shard_down("shard 1: worker panicked");
        assert!(e.source().is_none());
        assert!(e.to_string().contains("shard down"));
        assert!(e.to_string().contains("shard 1"));
    }

    #[test]
    fn config_errors_have_no_source() {
        let e = AsvError::config("propagation window must be positive");
        assert!(e.source().is_none());
        assert!(e.to_string().contains("propagation window"));
    }

    #[test]
    fn error_trait_is_object_safe_and_sendable() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<AsvError>();
        let boxed: Box<dyn Error> = Box::new(AsvError::config("x"));
        assert!(boxed.to_string().contains("configuration"));
    }
}
