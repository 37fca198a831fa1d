//! One module per paper artifact. [`crate::ALL_IDS`] lists the ids, and
//! README's "Reproduce the paper artifacts" maps them to the paper.

pub mod ablations;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod figa1;
pub mod figa2;
pub mod figa3;
pub mod figa4;
pub mod figa5;
pub mod figa6;
pub mod reliability;
pub mod tables;
pub mod validation;
