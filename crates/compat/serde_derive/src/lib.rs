//! Offline stand-in for `serde_derive`.
//!
//! The build environment has no access to crates.io, so this proc-macro crate
//! provides `#[derive(Serialize)]` / `#[derive(Deserialize)]` entry points
//! that expand to nothing.  Types annotated with the derives compile
//! unchanged; actual (de)serialization is not implemented because nothing in
//! the workspace exercises it yet.  Swapping in the real `serde` later only
//! requires changing the path dependencies back to registry versions.

#![forbid(unsafe_code)]

use proc_macro::TokenStream;

/// No-op stand-in for `serde_derive::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// No-op stand-in for `serde_derive::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
