import com.sun.source.util.JavacTask;
import com.sun.source.util.TaskEvent;
import com.sun.source.util.TaskListener;
import com.sun.tools.javac.api.BasicJavacTask;
import com.sun.tools.javac.api.ClientCodeWrapper.DiagnosticSourceUnwrapper;
import com.sun.tools.javac.api.JavacTaskImpl;
import com.sun.tools.javac.api.JavacTaskPool;
import com.sun.tools.javac.main.JavaCompiler;
import com.sun.tools.javac.util.Context;
import com.sun.tools.javac.util.JavacMessages;
import com.sun.tools.javac.util.Log;
import java.io.BufferedReader;
import java.io.ByteArrayOutputStream;
import java.io.IOException;
import java.io.InputStreamReader;
import java.io.PrintStream;
import java.io.PrintWriter;
import java.nio.charset.Charset;
import java.nio.charset.StandardCharsets;
import java.nio.file.Path;
import java.util.List;
import javax.tools.Diagnostic;
import javax.tools.DiagnosticListener;
import javax.tools.JavaFileObject;
import javax.tools.StandardJavaFileManager;
import javax.tools.ToolProvider;

/**
 * Compiles candidate sources one after another in a single long-lived JVM.
 *
 * <p>Compile it and run it from its classes, javac's internal packages exported to both:
 * {@code javac --add-exports jdk.compiler/com.sun.tools.javac.{api,main,util}=ALL-UNNAMED -d DIR
 * CompileServer.java}, then {@code java --add-exports ...=ALL-UNNAMED -cp DIR CompileServer}. The
 * sandbox builds it once per process, with SynthesisLauncher. Once the system compiler is loaded
 * it prints {@code ready}. Then it reads one request per line from stdin, {@code workdir TAB
 * classpath TAB source}, compiles like {@code javac -cp classpath workdir/source} and replies {@code exit nout nerr} on one
 * line, followed by {@code nout} bytes of the compiler's stdout and {@code nerr} bytes of its
 * stderr. Every {@code workdir/} is removed from both, so the text reads as it does from
 * {@code javac source} run inside workdir. The classpath field holds dependencies only; an
 * empty one compiles against this server's own empty working directory, which stands for
 * {@code javac}'s default "." in a workdir that holds nothing but the source. It exits at the
 * end of its input. There is no {@code -d}: as from {@code javac source}, class files land
 * next to the source whatever package it declares.
 *
 * <p>Compiles with the same classpath reuse one javac context ({@link JavacTaskPool}, as
 * JShell does), so the JDK's own classes are read and completed once, not per compile, and one
 * file manager keeps each dependency jar open. Only one context is kept: a compile with another
 * classpath than the last builds a fresh one in its place. What a context carries from one
 * compile to the next is undone here: the log's suppressed counts and compressed-output flag
 * are reset, and after a unit that declares a package the context is dropped, since the
 * package's symbol would outlive its classes and change how a later reference to it is reported.
 */
public class CompileServer {
    /** Contexts kept at once; the heap is sized for one symbol table. */
    private static final int CONTEXTS = 1;

    public static void main(String[] args) throws IOException {
        javax.tools.JavaCompiler javac = ToolProvider.getSystemJavaCompiler();
        if (javac == null) {
            throw new IllegalStateException("no system Java compiler in this runtime");
        }
        StandardJavaFileManager files = javac.getStandardFileManager(null, null, null);
        JavacTaskPool contexts = new JavacTaskPool(CONTEXTS);
        String home = Path.of("").toAbsolutePath().toString();
        PrintStream reply = System.out;
        PrintStream console = System.err;
        ByteArrayOutputStream out = new ByteArrayOutputStream();
        ByteArrayOutputStream err = new ByteArrayOutputStream();
        // As from javac's command line, the compiler writes everything to its stderr. A reused
        // context keeps the writer it was made with, so every compile gets this same one.
        PrintWriter diagnostics = new PrintWriter(err, true);
        BufferedReader requests =
                new BufferedReader(new InputStreamReader(System.in, StandardCharsets.UTF_8));
        reply.print("ready\n");
        reply.flush();
        String line;
        while ((line = requests.readLine()) != null) {
            String[] request = line.split("\t", -1);
            String workdir = request[0];
            String classpath = request[1].isEmpty() ? home : request[1];
            out.reset();
            err.reset();
            // What an annotation processor prints lands in the reply.
            System.setOut(new PrintStream(out, true));
            System.setErr(new PrintStream(err, true));
            Compile compile = new Compile(diagnostics);
            int exit;
            try {
                exit = contexts.getTask(diagnostics, files, compile, List.of("-cp", classpath), null,
                        files.getJavaFileObjects(workdir + "/" + request[2]), compile);
            } finally {
                diagnostics.flush();
                System.setOut(reply);
                System.setErr(console);
            }
            // The file manager caches each source's text; unflushed, it fills the old generation.
            files.flush();
            if (compile.declaresPackage) {
                contexts = new JavacTaskPool(CONTEXTS);
            }
            byte[] stdout = relative(out, workdir);
            byte[] stderr = relative(err, workdir);
            reply.write((exit + " " + stdout.length + " " + stderr.length + "\n")
                    .getBytes(StandardCharsets.US_ASCII));
            reply.write(stdout);
            reply.write(stderr);
            reply.flush();
        }
    }

    private static byte[] relative(ByteArrayOutputStream text, String workdir) {
        Charset charset = Charset.defaultCharset();
        return text.toString(charset).replace(workdir + "/", "").getBytes(charset);
    }

    /** One compile in a pooled context, reporting what javac's command line would print. */
    private static final class Compile
            implements JavacTaskPool.Worker<Integer>, DiagnosticListener<JavaFileObject>, TaskListener {
        private final PrintWriter diagnostics;
        private Context context;
        boolean declaresPackage;

        Compile(PrintWriter diagnostics) {
            this.diagnostics = diagnostics;
        }

        @Override
        public Integer withTask(JavacTask task) {
            context = ((BasicJavacTask) task).getContext();
            task.addTaskListener(this);
            Log log = Log.instance(context);
            log.compressedOutput = false;
            log.nsuppressederrors = 0;
            log.nsuppressedwarns = 0;
            // call() folds a compiler crash into false; the exit code keeps it a fault.
            int exit = ((JavacTaskImpl) task).doCall().exitCode;
            // With a diagnostic listener javac leaves out its closing count lines.
            JavaCompiler compiler = JavaCompiler.instance(context);
            int errors = compiler.errorCount();
            int warnings = compiler.warningCount();
            compiler.printCount("error", errors);
            compiler.printCount("warn", warnings);
            printSuppressed(log, errors, log.nsuppressederrors, "count.error.recompile");
            printSuppressed(log, warnings, log.nsuppressedwarns, "count.warn.recompile");
            return exit;
        }

        private static void printSuppressed(Log log, int shown, int suppressed, String key) {
            if (suppressed > 0) {
                log.printLines(Log.WriterKind.ERROR, key, String.valueOf(shown), String.valueOf(shown + suppressed));
            }
        }

        /** Prints the diagnostic through the context's own formatter, as javac's log does. */
        @Override
        public void report(Diagnostic<? extends JavaFileObject> diagnostic) {
            Log log = Log.instance(context);
            String text = log.getDiagnosticFormatter().format(((DiagnosticSourceUnwrapper) diagnostic).d,
                    JavacMessages.instance(context).getCurrentLocale());
            Log.printRawLines(diagnostics, text);
            diagnostics.flush();
        }

        @Override
        public void finished(TaskEvent event) {
            if (event.getKind() == TaskEvent.Kind.PARSE && event.getCompilationUnit().getPackage() != null) {
                declaresPackage = true;
            }
        }
    }
}
