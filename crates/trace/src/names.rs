//! Name resolution: one trait over every source of interned names.
//!
//! A [`Trace`] interns names at build time; the streaming readers intern
//! them on the fly into [`StreamNames`].  Both
//! assign dense per-trace ids, so ids from *different* traces (or different
//! readers over the same file) are not comparable — but the names are.  The
//! [`NameResolver`] trait abstracts over every id→name table in the
//! workspace so consumers that need cross-trace identity (the engine's
//! mergeable `Outcome`, the multi-shard driver) can resolve ids to names at
//! the boundary of one run and compare by name from then on.

use crate::format::StreamNames;
use crate::ids::{Location, LockId, VarId};
use crate::trace::Trace;
use rapid_vc::ThreadId;

/// Resolves interned per-trace ids back to the names they intern.
///
/// Implemented by [`Trace`] (builder-time interning) and
/// [`StreamNames`] (reader-time interning).
/// The `*_label` helpers never fail: ids without a recorded name (e.g. the
/// unknown location) fall back to the id's own display form, which is stable
/// within one resolver.
pub trait NameResolver {
    /// Looks up a thread's name.
    fn thread_name(&self, thread: ThreadId) -> Option<&str>;

    /// Looks up a lock's name.
    fn lock_name(&self, lock: LockId) -> Option<&str>;

    /// Looks up a variable's name.
    fn variable_name(&self, variable: VarId) -> Option<&str>;

    /// Looks up a program location's name.
    fn location_name(&self, location: Location) -> Option<&str>;

    /// The variable's name, falling back to the id's display form.
    fn variable_label(&self, variable: VarId) -> String {
        self.variable_name(variable).map(str::to_owned).unwrap_or_else(|| variable.to_string())
    }

    /// The location's name, falling back to the id's display form.
    fn location_label(&self, location: Location) -> String {
        self.location_name(location).map(str::to_owned).unwrap_or_else(|| location.to_string())
    }
}

impl NameResolver for Trace {
    fn thread_name(&self, thread: ThreadId) -> Option<&str> {
        Trace::thread_name(self, thread)
    }

    fn lock_name(&self, lock: LockId) -> Option<&str> {
        Trace::lock_name(self, lock)
    }

    fn variable_name(&self, variable: VarId) -> Option<&str> {
        Trace::variable_name(self, variable)
    }

    fn location_name(&self, location: Location) -> Option<&str> {
        Trace::location_name(self, location)
    }
}

impl NameResolver for StreamNames {
    fn thread_name(&self, thread: ThreadId) -> Option<&str> {
        StreamNames::thread_name(self, thread)
    }

    fn lock_name(&self, lock: LockId) -> Option<&str> {
        StreamNames::lock_name(self, lock)
    }

    fn variable_name(&self, variable: VarId) -> Option<&str> {
        StreamNames::variable_name(self, variable)
    }

    fn location_name(&self, location: Location) -> Option<&str> {
        StreamNames::location_name(self, location)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;
    use crate::format;

    fn resolver_smoke(names: &dyn NameResolver) {
        assert_eq!(names.thread_name(ThreadId::new(0)), Some("t1"));
        assert_eq!(names.variable_name(VarId::new(0)), Some("x"));
        assert_eq!(names.variable_label(VarId::new(0)), "x");
        assert_eq!(names.location_name(Location::new(0)), Some("A.java:1"));
        assert_eq!(names.location_label(Location::new(0)), "A.java:1");
    }

    #[test]
    fn trace_and_stream_names_resolve_identically() {
        let mut builder = TraceBuilder::new();
        let t1 = builder.thread("t1");
        let x = builder.variable("x");
        builder.at("A.java:1");
        builder.write(t1, x);
        let trace = builder.finish();
        resolver_smoke(&trace);

        let text = format::write_std(&trace);
        let mut reader = format::StreamReader::std(text.as_bytes());
        assert!(reader.by_ref().all(|event| event.is_ok()));
        resolver_smoke(reader.names());
    }

    #[test]
    fn labels_fall_back_to_id_display() {
        let trace = TraceBuilder::new().finish();
        let missing_var = VarId::new(7);
        let missing_location = Location::new(9);
        assert_eq!(NameResolver::variable_name(&trace, missing_var), None);
        assert_eq!(NameResolver::variable_label(&trace, missing_var), missing_var.to_string());
        assert_eq!(
            NameResolver::location_label(&trace, missing_location),
            missing_location.to_string()
        );
    }
}
