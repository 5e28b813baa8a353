//! One field list per counter family.
//!
//! A counter family is a struct of monotonic `AtomicU64`s the engine
//! records into, a plain-`u64` snapshot of it, the interval `delta` of two
//! snapshots and the `(name, value)` `entries` report writers iterate.
//! [`counter_family!`] generates all four from one list, so a field is
//! named once; the recorder methods (what an event adds to which field)
//! stay hand-written beside the list.

/// Generates `$Counters` (atomics, `Default`), `$Snapshot` (public `u64`
/// fields with the given docs), `$Counters::snapshot`, and
/// `$Snapshot::{delta, entries}` — entries in list order.
///
/// A field's delta is `later - self` unless the list says otherwise:
/// `field [high_water]` marks a maximum rather than a sum, whose delta
/// is the later value.
macro_rules! counter_family {
    (
        $(#[$cdoc:meta])*
        $Counters:ident => $Snapshot:ident {
            $( $(#[$fdoc:meta])* $field:ident $([$rule:ident])? ),+ $(,)?
        }
    ) => {
        $(#[$cdoc])*
        #[derive(Debug, Default)]
        pub struct $Counters {
            $( $field: std::sync::atomic::AtomicU64, )+
        }

        impl $Counters {
            /// Takes a snapshot of all counters.
            pub fn snapshot(&self) -> $Snapshot {
                $Snapshot {
                    $( $field: self.$field.load(std::sync::atomic::Ordering::Relaxed), )+
                }
            }
        }

        #[doc = concat!("A point-in-time copy of [`", stringify!($Counters), "`].")]
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct $Snapshot {
            $( $(#[$fdoc])* pub $field: u64, )+
        }

        impl $Snapshot {
            /// Difference of two snapshots (`later - self`); a high-water
            /// mark is not a sum, so the later value is kept.
            pub fn delta(&self, later: &$Snapshot) -> $Snapshot {
                $Snapshot {
                    $( $field: counter_family!(@delta $($rule)? ; later.$field, self.$field), )+
                }
            }

            /// `(name, value)` pairs in display order, for report writers.
            pub fn entries(&self) -> [(&'static str, u64); [$(stringify!($field)),+].len()] {
                [ $( (stringify!($field), self.$field), )+ ]
            }
        }
    };
    (@delta ; $later:expr, $earlier:expr) => { $later - $earlier };
    (@delta high_water ; $later:expr, $earlier:expr) => { $later };
}

/// Generates one documented `pub fn $name(&self)` per line, each adding
/// one to the named field.
macro_rules! bump {
    ($($(#[$doc:meta])* $fn_name:ident => $field:ident),* $(,)?) => {
        $(
            $(#[$doc])*
            pub fn $fn_name(&self) {
                self.$field.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        )*
    };
}

pub(crate) use {bump, counter_family};

/// What each family's `entries_cover_every_field` test checks, after it
/// has driven every recorder at least once: `entries()` reports each
/// field of the snapshot struct once, in declaration order, under its own
/// name and with its own value (read off the derived `Debug` output, which
/// names what the struct really holds), and no field was left unreached.
#[cfg(test)]
pub(crate) fn assert_entries_cover_every_field<const N: usize>(
    snapshot: &impl std::fmt::Debug,
    entries: [(&'static str, u64); N],
) {
    let debug = format!("{snapshot:?}");
    let body = &debug[debug.find('{').expect("a struct") + 1..debug.len() - 1];
    let held: Vec<(&str, u64)> = body
        .split(',')
        .map(|pair| {
            let (name, value) = pair.split_once(':').expect("field: value");
            (name.trim(), value.trim().parse().expect("u64"))
        })
        .collect();
    assert_eq!(entries.as_slice(), held);
    assert!(entries.iter().all(|(_, v)| *v > 0), "{debug}");
}
