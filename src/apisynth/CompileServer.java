import java.io.BufferedReader;
import java.io.ByteArrayOutputStream;
import java.io.IOException;
import java.io.InputStreamReader;
import java.io.PrintStream;
import java.nio.charset.Charset;
import java.nio.charset.StandardCharsets;
import javax.tools.JavaCompiler;
import javax.tools.ToolProvider;

/**
 * Compiles candidate sources one after another in a single long-lived JVM.
 *
 * <p>Run it with the JDK's source launcher: {@code java CompileServer.java}. Once the
 * system compiler is loaded it prints {@code ready}. Then it reads one request per line
 * from stdin, {@code workdir TAB classpath TAB source}, compiles like
 * {@code javac -cp classpath workdir/source} and replies
 * {@code exit nout nerr} on one line, followed by {@code nout} bytes of the compiler's
 * stdout and {@code nerr} bytes of its stderr. Every {@code workdir/} is removed from
 * both, so the text reads as it does from {@code javac source} run inside workdir. It
 * exits at the end of its input. There is no {@code -d}: as from {@code javac source},
 * class files land next to the source whatever package it declares.
 */
public class CompileServer {
    public static void main(String[] args) throws IOException {
        JavaCompiler javac = ToolProvider.getSystemJavaCompiler();
        if (javac == null) {
            throw new IllegalStateException("no system Java compiler in this runtime");
        }
        PrintStream reply = System.out;
        PrintStream console = System.err;
        BufferedReader requests =
                new BufferedReader(new InputStreamReader(System.in, StandardCharsets.UTF_8));
        reply.print("ready\n");
        reply.flush();
        String line;
        while ((line = requests.readLine()) != null) {
            String[] request = line.split("\t", -1);
            String workdir = request[0];
            ByteArrayOutputStream out = new ByteArrayOutputStream();
            ByteArrayOutputStream err = new ByteArrayOutputStream();
            // What the compiler or an annotation processor prints lands in the reply.
            System.setOut(new PrintStream(out, true));
            System.setErr(new PrintStream(err, true));
            int exit;
            try {
                exit = javac.run(null, out, err, "-cp", request[1], workdir + "/" + request[2]);
            } finally {
                System.setOut(reply);
                System.setErr(console);
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
}
