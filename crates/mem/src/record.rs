//! [`counter_record!`](crate::counter_record): the one place a counter
//! record's field list is written.

/// Declares a `Copy + Default + Eq` struct of documented `pub u64`
/// counters and, from the same field list, `FIELDS` (the names, in
/// declaration order), `values()`, `from_values()` and a field-wise
/// `merge()` — so codecs, exports and aggregation never enumerate the
/// fields themselves and a new counter is one line in the declaration.
///
/// `merge` adds each counter; one declared `pub peak: u64 => max,` keeps
/// the larger value instead. A trailing `nested { pub mem: MemStats, }`
/// block adds fields that are records themselves: they stay out of
/// `FIELDS` / `values()`, start at their default in `from_values()`, and
/// `merge` recurses into them.
#[macro_export]
macro_rules! counter_record {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* pub $field:ident : u64 $(=> $op:ident)? , )*
            $( nested { $( $(#[$nmeta:meta])* pub $nested:ident : $nty:ty , )* } )?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name {
            $( $(#[$fmeta])* pub $field: u64, )*
            $( $( $(#[$nmeta])* pub $nested: $nty, )* )?
        }

        impl $name {
            /// The `u64` counter names, in declaration order.
            pub const FIELDS: [&'static str; [$(stringify!($field)),*].len()] =
                [$(stringify!($field)),*];

            /// The `u64` counter values, in [`Self::FIELDS`] order.
            pub fn values(&self) -> [u64; Self::FIELDS.len()] {
                [$(self.$field),*]
            }

            /// The record holding `values` (in [`Self::FIELDS`] order);
            /// nested records start at their default.
            pub fn from_values(values: [u64; Self::FIELDS.len()]) -> Self {
                let [$($field),*] = values;
                Self { $($field,)* $( $($nested: Default::default(),)* )? }
            }

            /// Accumulates `other` into `self` field by field: counters
            /// add (those declared `=> max` keep the larger value), nested
            /// records merge.
            pub fn merge(&mut self, other: &Self) {
                $( $crate::counter_record!(@merge self, other, $field $(, $op)?); )*
                $( $( self.$nested.merge(&other.$nested); )* )?
            }
        }
    };
    (@merge $this:ident, $other:ident, $field:ident) => {
        $this.$field += $other.$field;
    };
    (@merge $this:ident, $other:ident, $field:ident, max) => {
        $this.$field = $this.$field.max($other.$field);
    };
}

#[cfg(test)]
mod tests {
    crate::counter_record! {
        /// An inner record.
        pub struct Inner {
            /// Summed.
            pub n: u64,
        }
    }

    crate::counter_record! {
        /// Every form the macro accepts.
        pub struct Outer {
            /// Summed.
            pub hits: u64,
            /// Kept at the larger value.
            pub peak: u64 => max,
            nested {
                /// Merged recursively.
                pub inner: Inner,
            }
        }
    }

    #[test]
    fn generated_items_follow_the_declaration() {
        assert_eq!((Outer::FIELDS, Inner::FIELDS), (["hits", "peak"], ["n"]));
        let mut a = Outer { inner: Inner::from_values([1]), ..Outer::from_values([1, 9]) };
        a.merge(&Outer { hits: 10, peak: 3, inner: Inner { n: 2 } });
        assert_eq!((a.values(), a.inner.values()), ([11, 9], [3]));
        assert_eq!(Outer::from_values([0, 0]), Outer::default());
    }
}
